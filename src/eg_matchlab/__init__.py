"""eg-matchlab: largest subgraphs with a given matching number.

Library + CLI for maximum matchings and Tutte-Berge witnesses, exact
extremal subgraph search with canonical-form verdicts, decomposition
improvement moves, binomial tail bounds and union-bound budgets, and a
seeded Monte Carlo harness over sparse / dense random-graph regimes.
"""

from .errors import CapabilityError, InputError, MoveError
from .graph_core import (Graph, GnpParams, gen_gnp, dense_regime_p, vset,
                         vset_members)
from .matching import (Matching, TBWitness, is_forest, konig_egervary,
                       matching_number, max_matching, tutte_berge_witness,
                       vertex_cover_number)
from .decomposition import (Decomposition, ExtremalResult, best_form1,
                            best_form2, decomposition_size, edge_set,
                            eg_check, eg_check_all, extremal,
                            nu_of_decomposition)
from .moves import (CaseThresholds, ImproveResult, MoveReport, apply_case,
                    classify_case, improve, is_canonical)
from .bounds import (BoundPair, BudgetResult, TailQuery, binom_tail_exact,
                     chernoff_lower, chernoff_upper, eg_size_formula,
                     large_deviation, p3_moments, phi, union_budget)
from .harness import (DensityAuditReport, FailureCertificate, RegimeSpec,
                      TrialRecord, between_event_holds,
                      build_failure_certificate, cap300_event_holds,
                      count_isolated_p3, density_audit, eg_fails_at_nu,
                      has_empty_half, interior_event_holds, run_trials,
                      records_to_csv, sparse_event_holds)

__version__ = "0.1.0"
