"""Deterministic simulator of secured tracking in a mobile ad hoc cluster.

Friendly/malicious node screening runs on a chained 256-bit integrated-key
cipher; detected targets are tracked by pairs of friendly reference nodes
using sectored adaptive beams, tracking zones, round-trip ranging and
two-circle triangulation.  Everything is seeded and reproducible.

Import each name from its module (``sectrack.engine``, ``sectrack.config``
and so on); the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
