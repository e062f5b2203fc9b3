"""File formats, PV-program ingestion, and the command-line interface.

The names below are re-exported lazily, like those of :mod:`precubical`.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "formats": (
            "parse_cubeset",
            "write_cubeset",
            "parse_path",
            "write_path",
            "parse_chain",
            "write_chain",
            "parse_kinks",
            "write_kinks",
            "parse_poset",
            "write_poset",
            "parse_complex",
            "write_complex",
            "parse_homology",
            "write_homology",
        ),
        "pv": ("PVProgram", "parse_pv", "pv_to_euclidean"),
    },
)
