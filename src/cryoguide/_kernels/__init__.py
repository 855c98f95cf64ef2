"""Splatting kernel backend selection.

Uses the compiled Cython extension when it imports and falls back to the
pure-numpy implementation otherwise.
"""

try:
    from ._splat_cy import splat, splat_grad

    BACKEND = "cython"
except ImportError:
    from ._splat_py import splat, splat_grad

    BACKEND = "python"

__all__ = ["splat", "splat_grad", "BACKEND"]
