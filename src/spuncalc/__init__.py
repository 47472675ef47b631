"""spuncalc: planar open books, surgery diagrams, and spun-embedding targets.

The API lives in the modules (``spuncalc.planar``, ``spuncalc.lens`` and
so on); the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
