"""Session set-up shared by both testpaths, ``tests/`` and ``benchmarks/``."""

import sys

import pytest


@pytest.fixture(scope="session", autouse=True)
def isolated_result_cache(tmp_path_factory):
    """Solve through an empty session cache, never the working tree's.

    The default registry (``repro.runtime.get_registry()``, which the
    experiment drivers and the paper-figure benches solve through) roots
    its disk cache at ``$REPRO_CACHE_DIR``, else ``.repro-cache/``.  Without
    this fixture a local run would check the paper's claims against answers
    written by whatever code last filled that directory.  Subprocesses
    inherit the variable.  ``repro`` is not imported here: a run of
    ``perfbench/`` puts ``src`` on the path only when its module loads.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        runtime = sys.modules.get("repro.runtime")
        if runtime is not None:  # drop a default registry built while collecting
            mp.setattr(runtime, "_default_registry", None)
        yield
