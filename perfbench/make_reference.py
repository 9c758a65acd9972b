"""Record the reference answers the benchmark checks its ops against.

    python3 perfbench/make_reference.py

Run it from the repository root, only at a commit whose outputs are meant
to become the new reference; it rewrites perfbench/reference.json.  Trial
pools are run through ``run_trials`` with the reference budgets of each
workload (larger than the benchmark's own, so fewer answers stay
undecided), and budgets are evaluated at every ladder point.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from eg_matchlab.bounds import BUDGET_TAGS, union_budget  # noqa: E402
from eg_matchlab.harness import run_trials  # noqa: E402
from workloads import (BUDGET_EPS, LADDER, TrialWorkload,  # noqa: E402
                       WORKLOADS, budget_key, budget_p, record_answers)

REFERENCE = HERE / "reference.json"


def main() -> int:
    out = {}
    for wl in WORKLOADS.values():
        if not isinstance(wl, TrialWorkload):
            continue
        answers = []
        for j in range(wl.pool):
            rec = run_trials(wl.spec(j, reference=True))[0][0]
            answers.append(record_answers(rec))
            print(f"{wl.name} {j} {rec.csv_row()}", file=sys.stderr,
                  flush=True)
        out[wl.name] = answers
    out["budgets"] = {budget_key(tag, n):
                      union_budget(tag, n, budget_p(n), BUDGET_EPS).log_value
                      for n in LADDER for tag in BUDGET_TAGS}
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
