"""Resilience campaigns: canned fault scenarios + a JSON report.

A *scenario* pairs a :class:`~repro.faults.plan.FaultPlan` with the
hardening configuration under test (retry policy, overrun watchdog,
degraded-mode controller) and runs the end-to-end trading system
(:class:`~repro.trading.system.RealTimeTradingSystem`) under it.  The
*campaign* sweeps a scenario matrix and emits one JSON resilience
report: deadline misses, QoS, injected-fault counts, recovery latency.

Everything is seeded and simulated-time only, so a campaign is fully
deterministic: the same scenarios + seed produce a byte-identical
report (CI runs a small campaign twice and compares).
"""

import json

from repro.core.resilience import (
    DegradedModeController,
    OverrunWatchdog,
    RetryPolicy,
)
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.flightrec import FlightRecorder
from repro.obs.profile import NullProfile
from repro.obs.report import RunReport
from repro.simkernel.time_units import MSEC, SEC
from repro.trading.network import NetworkModel
from repro.trading.system import RealTimeTradingSystem

#: probe topics the campaign counts per scenario.
_COUNTED_TOPICS = (
    "fault.*",
    "degrade.*",
    "rtseed.job_abort",
    "rtseed.discard",
    "trading.fetch_retry",
    "trading.broker_error",
)


def _signal_storm(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("signal_drop", start=0.25 * horizon,
                      end=0.60 * horizon, probability=0.5),
            FaultSpec("signal_delay", start=0.25 * horizon,
                      end=0.60 * horizon, probability=0.3,
                      delay=3 * MSEC),
            FaultSpec("spurious_wakeup", probability=0.2,
                      delay=0.5 * MSEC),
        ],
        seed=seed, name="signal_storm",
    )


def _timer_drift(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("timer_drift", start=0.2 * horizon,
                      end=0.7 * horizon, probability=0.6,
                      skew=4 * MSEC),
        ],
        seed=seed, name="timer_drift",
    )


def _net_timeouts(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("net_timeout", start=0.2 * horizon,
                      end=0.8 * horizon, probability=0.35,
                      timeout=120 * MSEC),
        ],
        seed=seed, name="net_timeouts",
    )


def _feed_outage(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("feed_gap", start=0.30 * horizon,
                      end=0.50 * horizon, probability=0.5),
            FaultSpec("feed_stale", start=0.50 * horizon,
                      end=0.70 * horizon, probability=0.3),
        ],
        seed=seed, name="feed_outage",
    )


def _broker_flap(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("broker_reject", start=0.2 * horizon,
                      end=0.5 * horizon, probability=0.4),
            FaultSpec("broker_disconnect", start=0.5 * horizon,
                      end=0.8 * horizon, probability=0.4),
        ],
        seed=seed, name="broker_flap",
    )


def _cpu_stall(horizon, seed):
    return FaultPlan(
        [
            FaultSpec("cpu_stall", start=0.3 * horizon,
                      end=0.6 * horizon, factor=3.0),
        ],
        seed=seed, name="cpu_stall",
    )


def _overload_degrade(horizon, seed):
    # Throttle the mandatory thread's core hard enough that jobs blow
    # through their deadlines, driving the controller into degraded
    # mode; the restore at window end lets it recover measurably.
    return FaultPlan(
        [
            FaultSpec("core_throttle", start=0.25 * horizon,
                      end=0.50 * horizon, factor=0.05, cores=[0]),
        ],
        seed=seed, name="overload_degrade",
    )


#: The canned scenario matrix: plan factory + hardening configuration.
SCENARIOS = {
    "baseline": {
        "description": "no faults, no hardening — the parity reference",
        "plan": lambda horizon, seed: FaultPlan([], seed=seed,
                                                name="baseline"),
    },
    "signal_storm": {
        "description": "dropped/late SIGALRMs + spurious wakeups; the "
                       "overrun watchdog backstops lost terminations",
        "plan": _signal_storm,
        "watchdog": True,
        # tight OD so the termination path (and thus SIGALRM traffic)
        # is exercised every job
        "system": {"optional_deadline": 150 * MSEC},
    },
    "timer_drift": {
        "description": "optional-deadline timers fire late",
        "plan": _timer_drift,
        "watchdog": True,
        "system": {"optional_deadline": 150 * MSEC},
    },
    "net_timeouts": {
        "description": "market-data fetch timeouts, retried within the "
                       "deadline budget",
        "plan": _net_timeouts,
        "network": True,
        "retry": True,
    },
    "feed_outage": {
        "description": "feed gaps then stale quotes",
        "plan": _feed_outage,
    },
    "broker_flap": {
        "description": "broker rejects then disconnects",
        "plan": _broker_flap,
    },
    "cpu_stall": {
        "description": "transient 3x micro-cost stall on every CPU",
        "plan": _cpu_stall,
        "watchdog": True,
    },
    "overload_degrade": {
        "description": "core-0 throttle forces deadline misses; "
                       "admission control sheds optional parts and "
                       "recovers after the window",
        "plan": _overload_degrade,
        "watchdog": True,
        "degrade": True,
    },
}


class ScenarioRun:
    """A prepared (not yet run) campaign scenario.

    :func:`prepare_scenario` builds the full system + fault plan +
    hardening stack and *starts* the middleware (plan + spawn) without
    driving the engine.  :meth:`finish` drains the kernel and builds
    the scenario's report dict.  The split exists for the snapshot
    layer (:mod:`repro.snapshot.programs`), which fast-forwards the
    engine to a barrier between the two; :func:`run_scenario` is the
    one-shot composition everything else uses.
    """

    def __init__(self, name, config, n_seconds, seed, plan, injector,
                 system, events, retry, watchdog, degrade, recorder,
                 profile):
        self.name = name
        self.config = config
        self.n_seconds = n_seconds
        self.seed = seed
        self.plan = plan
        self.injector = injector
        self.system = system
        self.kernel = system.middleware.kernel
        self.events = events
        self.retry = retry
        self.watchdog = watchdog
        self.degrade = degrade
        self.recorder = recorder
        self.profile = profile

    def finish(self):
        """Drain the kernel; returns the scenario's report dict."""
        with self.profile.section(f"faults.{self.name}.run"):
            report = self.system.finish()
        task = self.system.task
        probes = report.task_result.probes
        misses = len(report.task_result.deadline_misses)
        summary = report.summary()

        result = {
            "scenario": self.name,
            "description": self.config["description"],
            "seed": self.seed,
            "n_seconds": self.n_seconds,
            "plan": self.plan.to_dict(),
            "injected": dict(self.injector.counts),
            "events": self.events,
            "jobs": len(probes),
            "deadline_misses": misses,
            "miss_ratio": misses / len(probes) if probes else 0.0,
            "aborted_jobs": sum(1 for p in probes if p.aborted),
            "qos_ms": summary["qos_ms"],
            "trades": summary["trades"],
            "rejected": summary["rejected"],
            "equity": summary["equity"],
            "broker_failures": len(task.broker_failures),
            "run_report": RunReport.collect(
                self.kernel, injector=self.injector,
                watchdog=self.watchdog, degrade=self.degrade,
                include_wallclock=False,
            ).to_dict(),
        }
        if self.watchdog is not None:
            result["watchdog_fires"] = len(self.watchdog.fired)
        if self.degrade is not None:
            degrade = self.degrade
            result["degraded"] = {
                "episodes": len(degrade.episodes),
                "shed_jobs": degrade.shed_jobs,
                "recovery_latency_ms": [
                    latency / MSEC
                    for latency in degrade.recovery_latencies
                ],
            }
        return result


def prepare_scenario(name, n_seconds=30, seed=0, flight_dir=None,
                     profile=None, _sabotage=None):
    """Build one canned scenario, started but not run; returns a
    :class:`ScenarioRun` (see :func:`run_scenario` for parameters)."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; valid: {sorted(SCENARIOS)}"
        )
    if profile is None:
        profile = NullProfile()
    config = SCENARIOS[name]
    horizon = n_seconds * SEC
    plan = config["plan"](horizon, seed)
    injector = FaultInjector(plan)

    with profile.section(f"faults.{name}.setup"):
        network = None
        if config.get("network"):
            network = injector.wrap_network(NetworkModel(seed=seed))
        retry = RetryPolicy(max_attempts=3, backoff=5 * MSEC,
                            reserve=100 * MSEC) if config.get("retry") else None
        watchdog = OverrunWatchdog(grace=5 * MSEC) \
            if config.get("watchdog") else None
        degrade = DegradedModeController(enter_after=3, exit_after=2) \
            if config.get("degrade") else None

        system = RealTimeTradingSystem(
            n_seconds=n_seconds, seed=seed, network=network,
            retry_policy=retry, watchdog=watchdog, degrade=degrade,
            **config.get("system", {}),
        )
        task = system.task
        task.feed = injector.wrap_feed(task.feed)
        task.broker = injector.wrap_broker(task.broker)
        kernel = system.middleware.kernel

        events = {}

        def count_event(topic, _time, _data):
            events[topic] = events.get(topic, 0) + 1

        kernel.probes.subscribe(count_event, topics=_COUNTED_TOPICS)
        recorder = FlightRecorder.attach(kernel, dump_dir=flight_dir,
                                         seed=seed)
        recorder.degrade = degrade
        injector.attach(kernel)
        if _sabotage is not None:
            _sabotage(kernel)
        system.start()

    return ScenarioRun(name, config, n_seconds, seed, plan, injector,
                       system, events, retry, watchdog, degrade,
                       recorder, profile)


def run_scenario(name, n_seconds=30, seed=0, flight_dir=None,
                 profile=None, _sabotage=None):
    """Run one canned scenario; returns its (JSON-ready) report dict.

    :param flight_dir: when set, the scenario's
        :class:`~repro.obs.flightrec.FlightRecorder` observes its
        ``FLIGHT_TOPICS`` actively and dumps its ring into this
        directory at every failure edge (invariant violation,
        degraded-mode entry, watchdog fire); without it the recorder
        rides along passively.
    :param profile: optional
        :class:`~repro.obs.profile.WallClockProfile` — setup and run
        are timed under ``faults.<scenario>.setup`` / ``.run``.
        Wall-clock numbers never enter the returned report (it must
        stay byte-deterministic).
    :param _sabotage: test hook — ``f(kernel)`` called after setup,
        before the run; used to plant invariant violations for
        flight-recorder smoke tests.
    """
    return prepare_scenario(
        name, n_seconds=n_seconds, seed=seed, flight_dir=flight_dir,
        profile=profile, _sabotage=_sabotage,
    ).finish()


def assemble_campaign(names, n_seconds, seed, results):
    """Build the campaign document from per-scenario result dicts.

    Shared by the serial sweep (:func:`run_campaign`) and the farmed
    one (``repro.farm.farm_campaign``) so both emit byte-identical
    reports for the same scenario results.  The top-level
    ``run_report`` merges every scenario's per-run telemetry
    (:meth:`repro.obs.report.RunReport.merge`).
    """
    scenarios = dict(zip(names, results))
    document = {
        "campaign": "rtseed-resilience",
        "seed": seed,
        "n_seconds": n_seconds,
        "scenarios": scenarios,
    }
    run_reports = [result["run_report"] for result in results
                   if "run_report" in result]
    if run_reports:
        document["run_report"] = RunReport.merge(run_reports).to_dict()
    return document


class CampaignInterrupted(Exception):
    """A serial campaign stopped on a signal after draining the
    in-flight scenario; ``checkpoint_path`` resumes it."""

    def __init__(self, signum, completed, checkpoint_path=None):
        self.signum = signum
        self.completed = completed
        self.checkpoint_path = checkpoint_path
        hint = (f"; resume from checkpoint {checkpoint_path}"
                if checkpoint_path else "")
        super().__init__(
            f"campaign interrupted: {len(completed)} scenario(s) "
            f"completed{hint}"
        )


def _campaign_checkpoint_document(names, n_seconds, seed, completed):
    """Campaign progress as an ``rtseed-snapshot/1`` document.

    The campaign's unit of determinism is the scenario (each result is
    a pure function of ``(name, n_seconds, seed)``), so its checkpoint
    is completed-results-by-name rather than mid-scenario kernel state
    — same envelope, integrity checks, and CLI (``repro snapshot
    inspect``) as the simulation snapshots.
    """
    from repro.snapshot.core import build_snapshot

    return build_snapshot(
        program={"kind": "campaign", "scenarios": list(names),
                 "n_seconds": n_seconds, "seed": seed},
        barrier={"completed": len(completed)},
        state={"completed": completed},
        seed=seed,
    )


def load_campaign_checkpoint(document, names, n_seconds, seed):
    """Completed ``{name: result}`` from a campaign snapshot document.

    Refuses documents whose program does not exactly match the
    campaign being resumed (scenario list, duration, seed)."""
    from repro.snapshot.core import SnapshotMismatchError, \
        validate_snapshot

    validate_snapshot(document)
    program = document.get("program", {})
    expected = {"kind": "campaign", "scenarios": list(names),
                "n_seconds": n_seconds, "seed": seed}
    if program != expected:
        raise SnapshotMismatchError(
            f"campaign checkpoint program {program!r} does not match "
            f"this campaign {expected!r} — refusing to resume"
        )
    return dict(document["state"]["completed"])


def run_campaign(scenarios=None, n_seconds=30, seed=0, flight_dir=None,
                 profile=None, checkpoint_path=None, resume_from=None,
                 should_stop=None):
    """Sweep ``scenarios`` (default: all) into one resilience report.

    ``flight_dir`` and ``profile`` are forwarded to every
    :func:`run_scenario`; neither affects the report bytes.

    :param checkpoint_path: write a campaign snapshot after every
        completed scenario (crash-resumable; atomic rename).
    :param resume_from: a campaign snapshot document (or ``None``) —
        scenarios it already holds are not re-run.  Because each
        scenario result is a pure function of its parameters, the
        resumed report is byte-identical to an uninterrupted sweep.
    :param should_stop: optional zero-arg callable polled between
        scenarios; truthy → drain and raise
        :class:`CampaignInterrupted` (its return value is passed
        through as the signal number).
    """
    names = list(scenarios) if scenarios else sorted(SCENARIOS)
    completed = {}
    if resume_from is not None:
        completed = load_campaign_checkpoint(resume_from, names,
                                             n_seconds, seed)

    def write_checkpoint():
        if checkpoint_path is None:
            return
        from repro.snapshot.core import write_snapshot

        write_snapshot(
            checkpoint_path,
            _campaign_checkpoint_document(names, n_seconds, seed,
                                          completed),
        )

    for name in names:
        if name in completed:
            continue
        signum = should_stop() if should_stop is not None else None
        if signum:
            write_checkpoint()
            raise CampaignInterrupted(signum, completed,
                                      checkpoint_path=checkpoint_path)
        completed[name] = run_scenario(name, n_seconds=n_seconds,
                                       seed=seed, flight_dir=flight_dir,
                                       profile=profile)
        write_checkpoint()
    results = [completed[name] for name in names]
    return assemble_campaign(names, n_seconds, seed, results)


def render_report(report):
    """Serialize a campaign report deterministically (byte-stable)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
