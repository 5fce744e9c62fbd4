"""Monocular vehicle localization against a compact semantic landmark map.

Every name is imported from its own module (``semloc.mapmodel``,
``semloc.pipeline``, ...); the package root holds only the version.
"""

__version__ = "0.1.0"
