"""The command-line checks of ci/cli_checks.py: its runs in process through
stpg.cli.main, and what needs a process of its own through
``python -m stpg.cli``. Together about 1 s on a 2-core host."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from stpg import cli

_SPEC = importlib.util.spec_from_file_location(
    "cli_checks", Path(__file__).resolve().parents[1] / "ci" / "cli_checks.py")
checks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checks)


def _in_process(args):
    """(exit code, stderr text) of cli.main on args."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(args)
    return status, err.getvalue()


def test_every_run_reruns_byte_for_byte_in_canonical_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    checks.check_reruns(_in_process)
    checks.check_band()
    checks.check_canonical()
    checks.check_fresh_processes([sys.executable, "-m", "stpg.cli"])


def test_every_failure_exits_with_one_stderr_line_and_no_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    checks.check_failures(_in_process)
