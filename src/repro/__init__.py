"""repro — an executable reproduction of
"Easy Impossibility Proofs for k-Set Agreement in Message Passing Systems"
(Martin Biely, Peter Robinson, Ulrich Schmid, OPODIS 2011).

The library contains four layers:

1. **Substrates** — a message-passing simulator in the paper's
   deterministic-state-machine model (:mod:`repro.simulation`), the
   Dolev–Dwork–Stockmeyer model lattice (:mod:`repro.models`), failure
   detectors (:mod:`repro.failure_detectors`) and the directed-graph
   machinery of Section VI (:mod:`repro.graphs`).
2. **Algorithms** — the FLP two-stage protocol and the paper's k-set
   agreement generalisation, the ``Sigma_{n-1}`` and ``(Sigma, Omega)``
   protocols behind Corollary 13, and a deliberately flawed candidate
   (:mod:`repro.algorithms`).
3. **The paper's contribution** — Theorem 1 and its conditions,
   T-independence, restriction, indistinguishability, the closed-form
   borders and certificates (:mod:`repro.core`), plus the proof-specific
   partitions and run-pasting constructions (:mod:`repro.partitioning`).
4. **Analysis** — sweeps, bounded exploration and reporting used by the
   benchmark harness (:mod:`repro.analysis`).
5. **Campaigns** — the parallel scenario-campaign engine
   (:mod:`repro.campaign`): declarative scenario grids with deterministic
   per-scenario seeding, executed serially or across worker processes
   with identical results; plus the persistent result store
   (:mod:`repro.store`): content-addressed caching, kill/resume,
   adaptive budgets and per-task progress for long campaigns.

Quickstart::

    from repro import (
        KSetInitialCrash, initial_crash_model, execute, KSetAgreementProblem,
    )

    n, f = 6, 3
    model = initial_crash_model(n, f)
    algorithm = KSetInitialCrash(n, f)
    run = execute(algorithm, model, {p: p for p in model.processes})
    report = KSetAgreementProblem(k=2).evaluate(run)
    assert report.all_ok
"""

from repro.types import UNDECIDED, ProcessId, ProcessSet, Value, Verdict
from repro.exceptions import (
    AgreementViolation,
    ConfigurationError,
    PropertyViolation,
    ReproError,
    TerminationViolation,
    ValidityViolation,
)

from repro.models import (
    FailureAssumption,
    SystemModel,
    SystemModelSpec,
    asynchronous_model,
    consensus_verdict,
    initial_crash_model,
    partially_synchronous_model,
)

from repro.failure_detectors import (
    FailurePattern,
    OmegaK,
    PartitionDetector,
    RecordedHistory,
    SigmaK,
    sigma_omega_k,
    verify_lemma9,
)

from repro.algorithms import (
    Algorithm,
    DecideOwnValue,
    FLPConsensus,
    FlawedQuorumKSet,
    KSetInitialCrash,
    RestrictedAlgorithm,
    SigmaKSetAgreement,
    SigmaOmegaConsensus,
)

from repro.simulation import (
    ExecutionSettings,
    IsolationAdversary,
    LazyAdversaryView,
    PartitioningAdversary,
    RandomScheduler,
    RecordingPolicy,
    RoundRobinScheduler,
    Run,
    SilenceAdversary,
    execute,
)

from repro.core import (
    BorderVerdict,
    ImpossibilityCertificate,
    ImpossibilityWitness,
    KSetAgreementProblem,
    PartitionSpec,
    PossibilityCertificate,
    PropertyReport,
    TheoremOneApplication,
    check_independence,
    corollary13_verdict,
    f_resilient_family,
    indistinguishable_until_decision,
    restrict,
    runs_compatible,
    theorem2_verdict,
    theorem8_verdict,
    wait_free_family,
)

from repro.partitioning import (
    Theorem2Scenario,
    Theorem8BorderScenario,
    Theorem10Scenario,
    paste_runs,
    theorem2_partition,
    theorem10_partition,
    verify_pasting,
)

from repro.graphs import (
    DiGraph,
    lemma6_bound,
    source_components,
    verify_lemma6,
    verify_lemma7,
)

from repro.campaign import (
    CampaignResult,
    CampaignRunner,
    ScenarioGrid,
    ScenarioOutcome,
    ScenarioSpec,
)

__version__ = "1.0.0"

__all__ = [
    # types & errors
    "UNDECIDED",
    "ProcessId",
    "ProcessSet",
    "Value",
    "Verdict",
    "ReproError",
    "ConfigurationError",
    "PropertyViolation",
    "AgreementViolation",
    "ValidityViolation",
    "TerminationViolation",
    # models
    "FailureAssumption",
    "SystemModel",
    "SystemModelSpec",
    "asynchronous_model",
    "partially_synchronous_model",
    "initial_crash_model",
    "consensus_verdict",
    # failure detectors
    "FailurePattern",
    "RecordedHistory",
    "SigmaK",
    "OmegaK",
    "PartitionDetector",
    "sigma_omega_k",
    "verify_lemma9",
    # algorithms
    "Algorithm",
    "RestrictedAlgorithm",
    "DecideOwnValue",
    "FLPConsensus",
    "KSetInitialCrash",
    "SigmaKSetAgreement",
    "SigmaOmegaConsensus",
    "FlawedQuorumKSet",
    # simulation
    "execute",
    "ExecutionSettings",
    "RecordingPolicy",
    "LazyAdversaryView",
    "Run",
    "RoundRobinScheduler",
    "RandomScheduler",
    "PartitioningAdversary",
    "IsolationAdversary",
    "SilenceAdversary",
    # core
    "KSetAgreementProblem",
    "PropertyReport",
    "PartitionSpec",
    "TheoremOneApplication",
    "ImpossibilityWitness",
    "ImpossibilityCertificate",
    "PossibilityCertificate",
    "BorderVerdict",
    "theorem2_verdict",
    "theorem8_verdict",
    "corollary13_verdict",
    "restrict",
    "indistinguishable_until_decision",
    "runs_compatible",
    "check_independence",
    "wait_free_family",
    "f_resilient_family",
    # partitioning
    "Theorem2Scenario",
    "Theorem8BorderScenario",
    "Theorem10Scenario",
    "theorem2_partition",
    "theorem10_partition",
    "paste_runs",
    "verify_pasting",
    # campaigns
    "ScenarioSpec",
    "ScenarioOutcome",
    "ScenarioGrid",
    "CampaignRunner",
    "CampaignResult",
    # graphs
    "DiGraph",
    "source_components",
    "lemma6_bound",
    "verify_lemma6",
    "verify_lemma7",
    "__version__",
]
