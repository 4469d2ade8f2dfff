"""The golden CLI corpus: every case of tests/golden/cases.json, run in
process, must give the committed exit code and exactly the committed
standard output and standard error.  tests/golden/regen.py rewrites the
expected files."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN_DIR / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

ROOT = GOLDEN_DIR.parents[1]
EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text(encoding="utf-8"))


def test_every_case_has_expected_output():
    names = [case["name"] for case in regen.load_cases()]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(EXIT_CODES)
    for name in names:
        assert (GOLDEN_DIR / f"{name}.out").is_file()
        assert (GOLDEN_DIR / f"{name}.err").is_file()
    assert sorted(set(EXIT_CODES.values())) == [0, 1, 2, 3]


@pytest.mark.parametrize("case", regen.load_cases(), ids=lambda c: c["name"])
def test_golden_case(case):
    code, stdout, stderr = regen.run_case(case)
    assert code == EXIT_CODES[case["name"]]
    expected = (GOLDEN_DIR / f"{case['name']}.out").read_bytes()
    assert stdout.encode("utf-8") == expected
    expected = (GOLDEN_DIR / f"{case['name']}.err").read_bytes()
    assert stderr.encode("utf-8") == expected


def test_every_json_output_is_what_json_dumps_writes():
    """serialize writes its text itself, which must stay that of
    json.dumps(indent=2, ensure_ascii=False): every committed output that
    holds one JSON object is that text for the object it holds."""
    checked = 0
    for path in sorted(GOLDEN_DIR.glob("*.out")):
        text = path.read_text(encoding="utf-8")
        try:
            obj = json.loads(text)
        except ValueError:
            continue
        if isinstance(obj, dict):
            assert text == json.dumps(obj, indent=2, ensure_ascii=False) + "\n", path.name
            checked += 1
    assert checked >= 59


def test_check_mode_names_each_changed_case(tmp_path, monkeypatch):
    case = {"name": "gen-n2", "argv": ["gen", "--n", "2", "--k", "2", "--seed", "7"]}
    (tmp_path / "cases.json").write_text(json.dumps([case]), encoding="utf-8")
    (tmp_path / "exit_codes.json").write_text('{"gen-n2": 0}', encoding="utf-8")
    expected = (GOLDEN_DIR / "gen-n2.out").read_bytes()
    (tmp_path / "gen-n2.out").write_bytes(expected)
    (tmp_path / "gen-n2.err").write_bytes(b"")
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    assert regen.changed_cases() == []
    # one character of a witness changed
    (tmp_path / "gen-n2.out").write_bytes(expected.replace(b"v1", b"v3", 1))
    (tmp_path / "exit_codes.json").write_text('{"gen-n2": 1}', encoding="utf-8")
    assert regen.changed_cases() == ["gen-n2: stdout, exit code"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cases.json", "exit_codes.json", "gen-n2.err", "gen-n2.out"
    ]


def test_whole_corpus_under_a_second_hash_seed():
    """The in-process cases above run under this process's hash seed; one
    subprocess checks them all again under another."""
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(GOLDEN_DIR / "regen.py"), "--check"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "no case would change\n"
