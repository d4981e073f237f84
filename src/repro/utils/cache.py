"""Location of the on-disk artifact store.

Every persisted artifact — trained zoo models, planning intermediates,
evaluation tiles — lives in one :class:`~repro.plan.cache.
PlanArtifactCache` rooted here.
"""

from __future__ import annotations

import os

__all__ = ["default_cache_dir"]


def default_cache_dir():
    """Return the cache directory (override with ``REPRO_CACHE_DIR``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")
