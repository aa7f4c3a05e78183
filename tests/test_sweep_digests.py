import importlib.util
import time
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sweep_digests.py"
_spec = importlib.util.spec_from_file_location("sweep_digests", _PATH)
sweep_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_digests)

A2_Q = "ed54a0a803d4471800ce55e00a610ce8d8d08f372621aabd133f93c224693174"


def test_the_driver_fails_a_changed_byte(capsys):
    """The recorded-sweep driver passes an A2 sweep over Q against its
    digest, and fails it against the digest with one character changed."""
    flipped = A2_Q[:-1] + ("0" if A2_Q[-1] != "0" else "1")
    start = time.perf_counter()
    for digest, code in ((A2_Q, 0), (flipped, 1)):
        runs = {"A2-Q": sweep_digests.sweep("A2", "Q", "off", digest)}
        assert sweep_digests.main([], runs) == code
        out, err = capsys.readouterr()
        assert out.splitlines()[1].startswith("A2-Q\tok\t" if code == 0 else "A2-Q\tFAIL")
        assert (A2_Q in out) == bool(code) and (digest in err) == bool(code)
    assert time.perf_counter() - start < 2
    assert sweep_digests.main(["no-such-sweep"]) == 2
    assert list(sweep_digests.RUNS) == ["E7-Q", "E8-Q", "D7-strata", "B7-strata",
                                        "A8-strata", "E6-strata", "E6-dcosets",
                                        "E6-ext-induced", "D7-dcosets", "D7-ext-induced",
                                        "E6-dcosets-small", "E6-ext-induced-small",
                                        "E7-cohomology-dump", "E8-ext-center"]
