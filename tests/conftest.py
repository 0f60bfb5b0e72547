import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if "test_acceptance" in item.nodeid:
        if rep.when == "call" or (rep.when == "setup" and rep.outcome != "passed"):
            _ACCEPTANCE[item.name] = rep.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        status = "PASS" if _ACCEPTANCE[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{status:4s}  {name}")
