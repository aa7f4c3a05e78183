import pytest

import steinberg_ext.extengine as extengine
import steinberg_ext.homology as homology
import steinberg_ext.weyl as weyl


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty per-process caches for a test that counts what is computed or
    swaps in stand-ins: the rows' homology over Z and the built tables (the
    process's own dicts come back afterwards), and the Weyl groups generated
    so far, so that the next query generates its group or reads it from disk.
    The groups made during the test are dropped afterwards: they may have
    been made under the test's stand-ins."""
    monkeypatch.setattr(homology, "_ROW_HOMOLOGY", {})
    monkeypatch.setattr(extengine, "_BUILT_TABLES", {})
    memo = weyl.generate_weyl  # a test may patch the name
    memo.cache_clear()
    yield
    memo.cache_clear()
