"""scripts/setup_breakdown.py profiles a workload's set-up per device and
its run per event."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _breakdown(*args: str) -> tuple[str, list[str], dict[str, float]]:
    """Profile update-storm seed 1 once; return the header line, the column
    names and each listed function -> its calls per unit."""
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
            *args,
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    header, columns, *rows = done.stdout.splitlines()
    # a built-in's name has spaces, and its first word is enough here
    return header, columns.split(), {row.split()[3]: float(row.split()[2]) for row in rows}


def test_the_breakdown_lists_set_up_functions_per_device():
    header, columns, calls = _breakdown()
    assert header.startswith("update-storm seed 1 fleet 0: 300 devices, ")
    assert header.endswith(" µs per device profiled (mean of 1 set-ups)")
    assert columns == ["self", "µs", "cum", "µs", "calls/dev", "function"]
    assert any(f.endswith("(parse_scenario)") for f in calls)
    assert any(f.endswith("(_build_agents)") for f in calls)
    assert not any(f.endswith("(run)") for f in calls)
    # the registration WMAPs are jumped past, not drawn
    assert not any(f.endswith("(draw_bytes)") for f in calls)
    (registered,) = [n for f, n in calls.items() if "wbrac.py" in f and f.endswith("(provision)")]
    assert registered == 1.0


def test_the_run_phase_lists_run_functions_per_step():
    header, columns, calls = _breakdown("--phase", "run")
    assert header.startswith("update-storm seed 1 fleet 0: ")
    steps = int(header.split(": ")[1].split()[0])
    assert header.endswith(" µs per step profiled (mean of 1 runs)") and steps > 300
    assert columns == ["self", "µs", "cum", "µs", "calls/step", "function"]
    (stepped,) = [n for f, n in calls.items() if "simnet.py" in f and f.endswith("(step)")]
    assert stepped == 1.0
    # every device starts once in the run, and nothing is set up
    (started,) = [n for f, n in calls.items() if "icd.py" in f and f.endswith("(start)")]
    assert started == round(300 / steps, 3)
    assert not any(f.endswith(("(parse_scenario)", "(_build_agents)")) for f in calls)
