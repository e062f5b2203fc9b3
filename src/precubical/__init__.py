"""Pre-cubical sets, exact directed paths, and schedule-space topology.

The package computes with finite pre-cubical sets (the state spaces of
higher dimensional automata): it represents directed piecewise-linear
paths exactly over the rationals, strictifies and tames them, enumerates
the cube-chain refinement poset between two states, and determines the
homotopy type of the schedule space through nerve homology.

The public names below are re-exported lazily (PEP 562): a name's
module is imported on first use, so a process loads only the layers it
uses.  The layers import downwards only: ``carrier`` and ``chains``
build on ``cubeset``, ``dpath`` on ``carrier``, and ``taming``, which
holds everything that needs both paths and chains, on ``chains`` and
``dpath``; ``nerve`` needs only ``errors`` at run time.
"""

import importlib

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """``__all__``, ``__getattr__`` and ``__dir__`` of a package re-exporting ``exports`` lazily.

    ``exports`` maps each submodule to the names it defines.  A name is
    imported from its submodule on first access and then stored in the
    package namespace, so later lookups do not reach ``__getattr__``.
    Submodule names resolve to the submodule itself.
    """
    package = namespace["__name__"]
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in exports:
            return importlib.import_module(f"{package}.{name}")
        if name not in module_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{package}.{module_of[name]}"), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *module_of})

    return list(module_of), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "carrier": (
            "FacePartition",
            "Point",
            "canonicalize",
            "face",
            "hyperplane_level",
            "in_collar",
            "in_face_collar",
            "in_star",
            "l1_distance_in_cube",
            "leq_in_cube",
        ),
        "chains": (
            "NO_COARSEST",
            "CubeChain",
            "RefinementPoset",
            "coarsest_common_refinement",
            "common_refinement_exists",
            "elementary_refinements",
            "enumerate_chains",
            "refinement_set",
            "refines",
        ),
        "cubeset": (
            "BoxSpec",
            "CubeSet",
            "Violation",
            "boundary_cube",
            "euclidean",
            "full_cube",
            "is_non_self_linked",
            "is_proper",
            "q_complex",
            "source_vertex",
            "target_vertex",
            "validate",
            "z_complex",
        ),
        "dpath": (
            "KinkSequence",
            "PLPath",
            "Segment",
            "concatenate",
            "evaluate",
            "exponential_flow",
            "is_strict",
            "is_tame",
            "kinks_to_path",
            "l1_length",
            "naturalize",
            "path",
            "path_to_kinks",
            "paths_equal",
            "rational_flow",
            "reparametrize",
            "strictify",
            "strictify_homotopy",
        ),
        "errors": (
            "FormatError",
            "NoCommonCarrierError",
            "PrecubicalError",
            "SubordinationError",
            "UnknownCubeError",
        ),
        "nerve": (
            "HomologyResult",
            "SimplicialComplex",
            "betti",
            "components",
            "covering_nerve",
            "euler",
            "homology",
            "order_complex",
            "smith_normal_form",
        ),
        "taming": (
            "CrossingProfile",
            "MSurface",
            "chain_diagonal",
            "crossing_times",
            "finest_chain",
            "subordinate_to_collar",
            "tame",
            "tame_cube",
            "taming_homotopy",
        ),
    },
)
