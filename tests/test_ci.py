"""The CI workflow runs ci/checks.py, one step at a time, and nothing else."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workflow_steps():
    """(fields, raw lines) of each step of the workflow, read as plain text,
    since CI installs no YAML parser."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    for step in re.split(r"^      - ", text, flags=re.M)[1:]:
        lines = [line.strip() for line in step.splitlines() if line.strip()]
        yield dict(line.split(": ", 1) for line in lines if ": " in line), lines


def _script_steps():
    spec = importlib.util.spec_from_file_location("checks", ROOT / "ci" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return list(checks.STEPS)


def test_each_workflow_step_runs_one_step_of_the_script_in_its_order():
    called, after_bench = [], False
    for fields, lines in _workflow_steps():
        if "name" not in fields:
            continue  # checkout and setup-python
        assert set(fields) <= {"name", "if", "run"} and len(lines) == len(fields), lines
        if fields["name"].startswith("Install"):
            assert fields["run"].startswith("python -m pip install "), fields
        else:
            match = re.fullmatch(r"python ci/checks\.py ([\w-]+)", fields["run"])
            assert match, fields
            called.append(match[1])
        # a red step hides no later one
        assert fields.get("if") == ("${{ !cancelled() }}" if after_bench else None), fields
        after_bench = after_bench or called[-1:] == ["bench"]
    assert called == _script_steps()
