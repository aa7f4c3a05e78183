import pytest

import steinberg_ext.extengine as extengine
import steinberg_ext.homology as homology
import steinberg_ext.ringcond as ringcond


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty per-process caches for a test that counts what is computed or
    swaps in stand-ins: the rows' homology over Z, the built tables and the
    values q^e - 1 with their unit verdicts (the process's own dicts come
    back afterwards), and the ring verdicts of the built tables.  The
    verdicts made during the test are dropped afterwards: they may have been
    made under the test's stand-ins."""
    monkeypatch.setattr(homology, "_ROW_HOMOLOGY", {})
    monkeypatch.setattr(extengine, "_BUILT_TABLES", {})
    monkeypatch.setattr(ringcond, "_UNIT_VALUES", {})
    ring_passes = extengine._ring_passes  # a test may patch the name
    ring_passes.cache_clear()
    yield
    ring_passes.cache_clear()
