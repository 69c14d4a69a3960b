"""Execute scenarios on the middleware and the theory simulator and
aggregate verdicts.

:func:`run_scenario` is the single entry point the CLI, the shrinker
and the tests share: middleware run (with the kernel-trace, protocol
and final-state oracles) plus — for fault-free scenarios — the theory
simulator and the lockstep differential.
"""

from repro.check.differential import (
    compare_traces,
    normalize_middleware,
    normalize_simulator,
)
from repro.check.oracles import (
    check_final_state,
    check_kernel_trace,
    check_protocol,
)
from repro.check.scenario import CheckTask, Scenario
from repro.core.middleware import RTSeed
from repro.faults.injectors import FaultInjector
from repro.obs.flightrec import FlightRecorder
from repro.obs.profile import NullProfile
from repro.model.task_model import TaskSet
from repro.sched.simulator import ScheduleSimulator
from repro.simkernel.cpu import Topology, uniform_share
from repro.simkernel.errors import SimKernelError

#: Event-count circuit breaker for the middleware kernel: a planted bug
#: that livelocks the protocol hits this instead of hanging the fuzzer;
#: the post-run liveness oracle then reports the stuck threads.
MAX_KERNEL_EVENTS = 2_000_000


class CheckReport:
    """Verdict for one scenario."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.divergences = []
        self.violations = []
        self.crash = None
        self.differential_ran = False
        #: flight-recorder snapshot(s) captured at the failure edge
        #: (``None`` on a clean run); rides into the
        #: ``repro-check-repro/1`` artifact via :meth:`to_dict`.
        self.flight = None

    @property
    def ok(self):
        return not (self.divergences or self.violations or self.crash)

    def failure_kinds(self):
        """Stable signature of *what* failed (for replay assertions)."""
        kinds = sorted(
            {d["kind"] for d in self.divergences}
            | {v["oracle"] for v in self.violations}
        )
        if self.crash is not None:
            kinds.append("crash")
        return kinds

    def to_dict(self):
        return {
            "ok": self.ok,
            "differential_ran": self.differential_ran,
            "divergences": self.divergences,
            "violations": self.violations,
            "crash": self.crash,
            "flight": self.flight,
        }

    def summary(self):
        if self.ok:
            return "ok"
        parts = []
        if self.divergences:
            parts.append(f"{len(self.divergences)} divergence(s): "
                         + self.divergences[0]["detail"])
        if self.violations:
            first = self.violations[0]
            parts.append(f"{len(self.violations)} oracle violation(s): "
                         f"[{first['oracle']}] {first['detail']}")
        if self.crash:
            parts.append(f"crash: {self.crash}")
        return "; ".join(parts)

    def __repr__(self):
        return f"<CheckReport {self.summary()}>"


def build_middleware(scenario, collect_kernel_events=True,
                     cost_model="zero", noise_seed=0):
    """Build (don't run) the middleware stack for ``scenario``.

    Shared by :func:`run_middleware` (which runs it to completion) and
    the snapshot layer's ``check`` program (which drives the engine to
    a barrier first — check-artifact time-travel).

    :returns: ``(middleware, events)`` — the constructed
        :class:`~repro.core.middleware.RTSeed` (not yet started) and
        the live list its probe subscriber appends recorded events to.
        Each event keeps the bus payload dict itself, uncopied: it is a
        fresh keyword dict per publish and no subscriber mutates it
        (see :mod:`repro.obs.bus`).
    """
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    topology = Topology(scenario.n_cpus, 1, share_fn=uniform_share,
                        background_weight=0.0)
    middleware = RTSeed(topology=topology, cost_model=cost_model,
                        seed=noise_seed)

    events = []
    topics = ["rtseed.*"]
    if collect_kernel_events:
        topics.append("kernel.*")
    middleware.probes.subscribe(
        lambda topic, time, data: events.append((topic, time, data)),
        topics=topics,
    )
    # passive flight recorder: it rides on the kernel.*/rtseed.* events
    # the subscriber above demands — on failure its ring is attached
    # into the check artifact
    FlightRecorder.attach(middleware.kernel, seed=scenario.seed)

    for spec in scenario.tasks:
        middleware.add_task(
            CheckTask(spec),
            n_jobs=spec.n_jobs,
            cpu=spec.cpu,
            optional_cpus=spec.optional_cpus,
            optional_deadline=spec.optional_deadline,
            start_time=scenario.start_time,
        )

    plan = scenario.build_fault_plan()
    if plan is not None:
        FaultInjector(plan).attach(middleware.kernel)
    return middleware, events


def run_middleware(scenario, collect_kernel_events=True,
                   cost_model="zero", noise_seed=0):
    """One middleware run of ``scenario``.

    :param cost_model: passed to :class:`~repro.core.middleware.RTSeed`;
        the conformance oracles use ``"zero"`` (costs would diverge from
        the theory simulator); ``"xeonphi"`` exercises the noisy cost
        path.
    :param noise_seed: cost-model noise seed (``"xeonphi"`` only).
    :returns: ``(events, kernel, crash)`` — the recorded probe events,
        the kernel (for post-run state oracles) and the crash message
        (``None`` on a clean run).
    """
    middleware, events = build_middleware(
        scenario, collect_kernel_events=collect_kernel_events,
        cost_model=cost_model, noise_seed=noise_seed,
    )
    crash = None
    try:
        middleware.run(max_events=MAX_KERNEL_EVENTS)
    except SimKernelError as error:
        crash = f"{type(error).__name__}: {error}"
    return events, middleware.kernel, crash


def run_simulator(scenario):
    """The theory-simulator run of ``scenario`` (no faults possible)."""
    taskset = TaskSet([spec.to_model() for spec in scenario.tasks],
                      n_processors=scenario.n_cpus)
    simulator = ScheduleSimulator(
        taskset,
        policy="rmwp",
        assignment={spec.name: spec.cpu for spec in scenario.tasks},
        optional_assignment={
            spec.name: spec.optional_cpus for spec in scenario.tasks
        },
        optional_deadlines={
            spec.name: spec.optional_deadline for spec in scenario.tasks
        },
    )
    events = []
    simulator.probes.subscribe(
        lambda topic, time, data: events.append((topic, time, data)),
        topics=["sim.*"],
    )
    horizon = max(
        (spec.n_jobs + 1) * spec.period for spec in scenario.tasks
    )
    result = simulator.run(
        until=horizon,
        max_jobs_per_task={
            spec.name: spec.n_jobs for spec in scenario.tasks
        },
    )
    return events, result


def judge_run(scenario, mw_events, kernel, crash,
              collect_kernel_events=True, profile=None):
    """Verdict over an already-executed middleware run.

    Shared by :func:`run_scenario` (which just ran the middleware) and
    the snapshot time-travel replay (which restored a barrier snapshot
    and finished the run) — both judge the *full* recorded event
    stream with the same oracles and, for fault-free scenarios, the
    theory differential.
    """
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    if profile is None:
        profile = NullProfile()
    report = CheckReport(scenario)
    report.crash = crash
    with profile.section("check.oracles"):
        if collect_kernel_events:
            report.violations.extend(
                check_kernel_trace(mw_events, scenario.n_cpus)
            )
        report.violations.extend(check_protocol(mw_events, scenario))
        report.violations.extend(check_final_state(kernel))

    if not scenario.has_faults and crash is None:
        with profile.section("check.simulator"):
            sim_events, _result = run_simulator(scenario)
        with profile.section("check.compare"):
            report.divergences.extend(
                compare_traces(
                    normalize_simulator(sim_events, scenario),
                    normalize_middleware(mw_events, scenario),
                    scenario,
                )
            )
        report.differential_ran = True
    if not report.ok:
        flight = getattr(kernel.probes, "flight", None)
        if flight is not None:
            report.flight = flight.snapshot("check_failure")
    return report


def run_scenario(scenario, collect_kernel_events=True, profile=None):
    """Full verdict for one scenario: oracles always, differential when
    fault-free.

    :param profile: optional
        :class:`~repro.obs.profile.WallClockProfile` — phases are timed
        under ``check.middleware`` / ``check.oracles`` /
        ``check.simulator`` / ``check.compare`` sections.
    """
    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    if profile is None:
        profile = NullProfile()
    with profile.section("check.middleware"):
        mw_events, kernel, crash = run_middleware(
            scenario, collect_kernel_events=collect_kernel_events,
        )
    return judge_run(scenario, mw_events, kernel, crash,
                     collect_kernel_events=collect_kernel_events,
                     profile=profile)


def _index_payload(index, seed, report, scenario, shrink=False,
                   profile=None):
    """JSON-ready result of one batch run (what the farm ships home)."""
    from repro.check.shrink import make_artifact, shrink_report

    payload = {
        "index": index,
        "seed": seed,
        "ok": report.ok,
        "differential_ran": bool(report.differential_ran),
        "summary": report.summary(),
    }
    if not report.ok:
        shrink_runs = 0
        if shrink:
            with (profile or NullProfile()).section("check.shrink"):
                scenario, shrink_runs = shrink_report(report)
        payload["artifact"] = make_artifact(scenario, report,
                                            shrink_runs=shrink_runs)
    return payload


def run_fuzz_index(base_seed, index, fault_rate=0.0, shrink=True,
                   profile=None):
    """Run ``index`` of a ``fuzz`` batch; farm-shardable.

    The scenario seed comes from
    :func:`~repro.check.scenario.derive_run_seed`, so the payload is a
    pure function of ``(base_seed, index, fault_rate, shrink)`` — any
    partition of a batch's indices across workers reproduces the
    serial results exactly.
    """
    from repro.check.scenario import derive_run_seed, generate_scenario

    seed = derive_run_seed(base_seed, index)
    scenario = generate_scenario(seed, fault_rate=fault_rate)
    try:
        report = run_scenario(scenario, profile=profile)
    except Exception as error:  # checker bug — report, don't hide
        report = CheckReport(scenario)
        report.crash = f"checker error {type(error).__name__}: {error}"
    return _index_payload(index, seed, report, scenario, shrink=shrink,
                          profile=profile)


def fuzz(n_runs, seed=0, fault_rate=0.0, shrink=True, max_failures=5,
         on_progress=None, profile=None):
    """Run ``n_runs`` generated scenarios derived from ``seed``.

    Run ``k``'s scenario seed is ``derive_run_seed(seed, k)`` — an
    independent, order-free stream per run (see
    :mod:`repro.check.scenario`), so this serial loop and the farmed
    version (``repro.farm.farm_check``) execute identical scenarios.

    :param shrink: minimize each failing scenario and attach a repro
        artifact (:func:`repro.check.shrink.make_artifact`).
    :param max_failures: stop early after this many failures.  (The
        farm disables the early stop and truncates after the merge
        instead, keeping its report worker-count invariant.)
    :param on_progress: optional ``f(seed, payload)`` callback —
        ``payload`` is the JSON-ready per-run result (``ok``,
        ``summary``, ``artifact`` on failure).
    :param profile: optional
        :class:`~repro.obs.profile.WallClockProfile` shared by every
        run (``check.*`` sections; shrinking adds ``check.shrink``).
    :returns: dict with ``runs``, ``failures`` (list of artifacts) and
        ``differential_runs`` counts.
    """
    if profile is None:
        profile = NullProfile()
    failures = []
    differential_runs = 0
    runs = 0
    for index in range(n_runs):
        payload = run_fuzz_index(seed, index, fault_rate=fault_rate,
                                 shrink=shrink, profile=profile)
        runs += 1
        differential_runs += payload["differential_ran"]
        if not payload["ok"]:
            failures.append(payload["artifact"])
        if on_progress is not None:
            on_progress(payload["seed"], payload)
        if len(failures) >= max_failures:
            break
    return {
        "runs": runs,
        "differential_runs": differential_runs,
        "failures": failures,
    }
