"""Optional numba acceleration shim.

Two loop kernels off the segmentation and export path carry ``@njit``:
``ancestors._ascend_run`` (the exclusive-ancestor solver) and
``gst._lcp_interval_tree`` (the on-demand tree view). The JIT is active if
and only if numba imports and the environment variable ``EFGSEG_NO_NUMBA``
is not truthy (``1``, ``true`` or ``yes``, read once at import). Otherwise
``njit`` is the identity and the same kernels run as plain Python over numpy
arrays. numba is an optional dependency (the ``jit`` extra);
``NUMBA_ENABLED`` reports which engine runs. Disabling the JIT on purpose is
useful for debugging.
"""

import os

_DISABLED = os.environ.get("EFGSEG_NO_NUMBA", "").strip().lower() in ("1", "true", "yes")

if not _DISABLED:
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False
else:
    NUMBA_ENABLED = False

if not NUMBA_ENABLED:

    def njit(*args, **kwargs):  # noqa: D103 - mirror numba's decorator shape
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap
