import pytest

import steinberg_ext.homology as homology
import steinberg_ext.weyl as weyl


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty per-process caches for a test that counts what is computed or
    swaps in stand-ins: the rows' homology over Z and over each ring (the
    process's own dicts come back afterwards), and the Weyl groups generated
    or loaded so far, so that the next query generates its group or reads it
    from disk.  The groups made during the test are dropped afterwards: they
    keep what they read under the test's stand-ins (inversion sums, the
    buckets each ring certifies)."""
    monkeypatch.setattr(homology, "_ROW_HOMOLOGY", {})
    monkeypatch.setattr(homology, "_RING_ROW_HOMOLOGY", {})
    memos = (weyl.generate_weyl, weyl.load_or_generate)  # a test may patch the names
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
