"""Golden CLI payloads: a fixed command set against recorded output.

Each command runs in process through `cli.main`. The recorded exit code and
every piece of non-numeric text must match exactly; numbers must match in
count and each to 1e-13 relative (absolute below 1), so reassociated sums
may move the last printed digit but nothing else. `runtime_s` is masked.

Regenerate `data/golden_cli.json` only from a commit whose output is known
good, with `PYTHONPATH=src python tests/test_golden_cli.py`. An entry whose
new output still passes this comparison keeps its recorded output, so the
file's diff shows only the payloads that changed, on any host.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from solvstate.cli import main

DATA = Path(__file__).with_name("data") / "golden_cli.json"
REL_TOL = 1e-13

_CUSTOM = '{"kind":"custom","energies":[0,1,3,6,10,15,21,28,36,45,55,66]}'

COMMANDS = [
    ["state", "gk", "--z", "0.7+0.2i", "--alpha", "0.3", "--k", "1",
     "--lambda", "4"],
    ["state", "gk", "--z", "0.9-0.3i", "--alpha", "0.1", "--k", "2",
     "--spectrum", '{"kind":"harmonic"}'],
    ["state", "gk", "--z", "0.5+0.1i", "--k", "1", "--spectrum", _CUSTOM],
    ["state", "gk", "--z", "1.2", "--k", "2", "--lambda", "1",
     "--format", "csv"],
    ["state", "kp", "--xi", "0.4+0.2i", "--alpha", "0.2", "--k", "0",
     "--lambda", "4"],
    ["state", "kp", "--xi", "0.5", "--alpha", "0.7", "--k", "2",
     "--lambda", "3"],
    ["state", "kp", "--xi", "0.3-0.2i", "--k", "1", "--lambda", "4",
     "--paper-literal"],
    ["state", "kp", "--Z", "0.3+0.1i", "--alpha", "0.4", "--k", "1",
     "--lambda", "4"],
    ["state", "kp", "--Z", "0.25", "--alpha", "0.4", "--k", "1",
     "--lambda", "4", "--nested"],
    ["state", "kp", "--Z", "0.3", "--k", "0", "--spectrum",
     '{"kind":"harmonic"}'],
    ["overlap", "gk", "--z1", "0.5", "--z2", "0.8", "--alpha1", "0.3",
     "--alpha2", "0.3", "--k", "1", "--lambda", "4"],
    ["overlap", "gk", "--z1", "0.3+0.4i", "--z2", "1.1-0.2i", "--k", "2",
     "--lambda", "2"],
    ["overlap", "gk", "--z1", "0.6", "--z2", "0.4+0.3i", "--alpha1", "0.2",
     "--alpha2", "0.5", "--k", "1", "--lambda", "4"],
    ["overlap", "kp", "--xi1", "0.3", "--xi2", "0.5i", "--alpha1", "0.2",
     "--alpha2", "0.6", "--k", "1", "--lambda", "4"],
    ["evolve", "gk", "--z", "0.7+0.2i", "--alpha", "0.2", "--k", "1",
     "--lambda", "4"],
    ["evolve", "kp", "--xi", "0.45+0.1i", "--alpha", "0.1", "--k", "2",
     "--lambda", "4", "--format", "json"],
    ["verify", "--suite", "gk", "--format", "json"],
    ["moments", "--check", "kp-weights", "--paper-literal", "--lambda", "4",
     "--k", "2", "--format", "json"],
    ["state", "gk", "--z", "0.5", "--format", "text"],
    ["overlap", "gk", "--z1", "0.5", "--z2", "0.8i", "--format", "text"],
    ["evolve", "gk", "--z", "0.5", "--format", "text"],
    ["verify", "--suite", "ladder", "--format", "json"],
    ["verify", "--suite", "pt", "--format", "json"],
]

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_RUNTIME = re.compile(r'("runtime_s": )[^,\n}]+')


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _split(text):
    """Non-numeric text pieces and the numbers between them."""
    text = _RUNTIME.sub(r"\1<masked>", text)
    return _NUMBER.split(text), [float(x) for x in _NUMBER.findall(text)]


def assert_same_payload(expected, actual):
    exp_text, exp_nums = _split(expected)
    act_text, act_nums = _split(actual)
    assert act_text == exp_text
    assert len(act_nums) == len(exp_nums)
    for i, (a, b) in enumerate(zip(exp_nums, act_nums)):
        assert abs(a - b) <= REL_TOL * max(1.0, abs(a)), (i, a, b)


# a missing data file leaves GOLDEN empty and fails test_golden_set_is_current
GOLDEN = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []


@pytest.mark.parametrize("entry", GOLDEN, ids=[
    f"{i:02d}-{e['argv'][0]}-{e['argv'][1]}" for i, e in enumerate(GOLDEN)])
def test_golden_payload(entry):
    code, out, err = run(entry["argv"])
    assert code == entry["code"]
    assert_same_payload(entry["stdout"], out)
    assert_same_payload(entry["stderr"], err)


def test_golden_set_is_current():
    assert [e["argv"] for e in GOLDEN] == COMMANDS


def test_comparison_rejects_a_moved_digit():
    assert_same_payload('{"x": 1.0}', '{"x": 1.00000000000001}')
    with pytest.raises(AssertionError):
        assert_same_payload('{"x": 1.0}', '{"x": 1.000000000001}')
    with pytest.raises(AssertionError):
        assert_same_payload('{"x": 1.0}', '{"y": 1.0}')


def _still_matches(entry, code, out, err):
    """The recorded entry passes `test_golden_payload` against this output."""
    try:
        assert code == entry["code"]
        assert_same_payload(entry["stdout"], out)
        assert_same_payload(entry["stderr"], err)
    except AssertionError:
        return False
    return True


def test_regeneration_keeps_only_entries_that_still_match():
    entry = {"code": 0, "stdout": '{"x": 1.0}', "stderr": ""}
    assert _still_matches(entry, 0, '{"x": 1.00000000000001}', "")
    assert not _still_matches(entry, 0, '{"x": 1.0, "y": 2}', "")
    assert not _still_matches(entry, 2, '{"x": 1.0}', "")


if __name__ == "__main__":
    recorded = {json.dumps(e["argv"]): e for e in GOLDEN}
    records = []
    for argv in COMMANDS:
        code, out, err = run(argv)
        entry = recorded.get(json.dumps(argv))
        if entry is None or not _still_matches(entry, code, out, err):
            entry = {"argv": argv, "code": code, "stdout": out, "stderr": err}
        records.append(entry)
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
