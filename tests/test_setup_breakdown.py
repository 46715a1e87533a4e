"""scripts/setup_breakdown.py profiles a workload's set-up per device."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_breakdown_lists_set_up_functions_per_device():
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "setup_breakdown.py"),
            "--workload",
            "update-storm",
            "--seed",
            "1",
            "--repeat",
            "1",
            "--top",
            "1000",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    header, columns, *rows = done.stdout.splitlines()
    assert header.startswith("update-storm seed 1 fleet 0: 300 devices, ")
    assert columns.split() == ["self", "µs", "cum", "µs", "calls/dev", "function"]
    # function -> calls per device; a built-in's name has spaces, and its
    # first word is enough here
    calls = {row.split()[3]: float(row.split()[2]) for row in rows}
    assert any(f.endswith("(parse_scenario)") for f in calls)
    assert any(f.endswith("(_build_agents)") for f in calls)
    # the registration WMAPs are jumped past, not drawn
    assert not any(f.endswith("(draw_bytes)") for f in calls)
    (registered,) = [n for f, n in calls.items() if "wbrac.py" in f and f.endswith("(provision)")]
    assert registered == 1.0
