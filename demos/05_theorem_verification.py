"""Running the desk-scale theorem verification sweeps programmatically.

Each sweep cross-checks one statement against the exact oracles over a
documented grid and returns a report with replayable counterexample records
(none are expected).  The same sweeps back the command line:

    sgn verify thm2.2
    sgn verify set.theta --n 6..12 --json report.jsonl

The cut-point and pendant sweeps (thm3.1, thm3.2, pendant) over the
exhaustive n <= 7 corpus take about a second each; only cor2.1's default
grid is heavy, at about 20 seconds.  This demo sticks to the quick ones and
reduced cut-point and cor2.1 grids.

Run:  python demos/05_theorem_verification.py
"""

from sgn import THEOREM_IDS, verify_theorem

print("registered sweeps:", ", ".join(THEOREM_IDS))
print()

quick = [
    ("thm2.2", {}),
    ("prop2.1", {}),
    ("thm4.1", {}),
    ("lem5.1", {}),
    ("lem5.2", {}),
    ("lem3.1", {}),
    ("set.bplus", {}),
    ("set.bplusplus", {}),
    ("set.theta", {}),
    ("set.bicyclic", {}),
    ("bounds.theta", {"samples": 1000}),
    ("thm3.1", {"n_max": 5}),   # full corpus sweep uses n_max=7
    ("thm3.2", {"n_max": 5}),
    ("pendant", {"n_max": 5}),
    ("cor2.1", {"n_max": 4, "samples": 50}),  # full run uses n_max=6, 500 samples
]

for theorem_id, options in quick:
    report = verify_theorem(theorem_id, **options)
    status = "pass" if report.passed else "FAIL"
    print(f"{theorem_id:<16} {status}  cases={report.cases_checked:<7} "
          f"elapsed={report.elapsed:.2f}s")
    if not report.passed:
        print("   counterexample:", report.failures[0])

print()
print("JSON-lines report for one sweep (failures, then a summary line):")
print(verify_theorem("set.theta", n_lo=6, n_hi=9).json_lines())
