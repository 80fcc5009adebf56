import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

# Property tests run the same examples on every run and keep no example
# database on disk; each module sets only its own max_examples.
settings.register_profile("exact", derandomize=True, database=None, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("exact")

# Test modules import shared helpers (the digest cells, the reference loops)
# from this directory by module name, whatever the import mode.
sys.path.insert(0, str(Path(__file__).resolve().parent))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion at the end of the run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", []) if mod else []
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
