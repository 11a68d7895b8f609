"""Adjacent-MBU resilience study: static codes vs adaptive selection.

Scaled DRAM/SRAM takes a growing share of its upsets as *adjacent*
multi-bit events, which the paper's (39, 32) SECDED code can only flag
as DUEs (SWD-ECC then recovers them heuristically — sometimes
wrongly).  A SEC-DED-DAEC code corrects that class in hardware but
spends two extra parity bits everywhere.  This study measures the
third option: keep SECDED by default and let the
:class:`~repro.service.selector.AdaptiveCodeSelector` upgrade only the
regions whose observed DUE population is burst-dominated.

Each trial partitions a memory into regions, injects a configurable
mix of adjacent bursts and random (non-adjacent) doubles, sweeps reads
over the array, and scores every injected fault exactly once at its
first faulted read:

- hardware-corrected (CE) and correct heuristic recoveries count as
  *recovered*;
- wrong heuristic recoveries and CE miscorrections count as *silent
  corruptions*;
- faults where even radius escalation finds no candidate count as
  *unrecovered*.

After scoring, the read's result is written back (a demand scrub) so
each fault is counted once; the adaptive arm additionally polls the
selector each epoch and re-encodes any region it switches.  Modeled
energy is the :mod:`repro.obs.energy` op-count delta over the trial,
so the recovery-rate comparison comes with a joules-per-handled-fault
price tag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.analysis.parallel import parallel_map
from repro.analysis.records import append_record
from repro.core.recovery import RecoveryPipeline
from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc
from repro.ecc.code import DecodeStatus, LinearBlockCode
from repro.ecc.daec import daec_code
from repro.ecc.matrices import canonical_secded_39_32
from repro.errors import AnalysisError, RecoveryError, UncorrectableError
from repro.memory.faults import FaultInjector
from repro.memory.model import EccMemory
from repro.memory.policy import HeuristicPolicy
from repro.obs import energy as obs_energy
from repro.obs import events as obs_events
from repro.obs.progress import SweepProgress
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark
from repro.service.selector import AdaptiveCodeSelector, SelectorPolicy

__all__ = [
    "MBU_ARMS",
    "DEFAULT_PROFILES",
    "MbuConfig",
    "MbuOutcome",
    "run_mbu_trial",
    "mbu_study",
    "append_mbu_record",
]

#: The compared system configurations.
MBU_ARMS = ("static-secded-39-32", "static-daec-41-32", "adaptive")

#: Burst profiles swept by :func:`mbu_study`: name -> fraction of
#: injected faults that are adjacent bursts (the rest are uniformly
#: random non-adjacent doubles).
DEFAULT_PROFILES: dict[str, float] = {
    "adjacent-bursts": 1.0,
    "mixed": 0.5,
    "random-doubles": 0.0,
}


@dataclass(frozen=True)
class MbuConfig:
    """Parameters of one MBU trial.

    Attributes
    ----------
    epochs / faults_per_epoch / reads_per_epoch:
        Fault arrivals and the read workload between selector polls.
    regions / words_per_region:
        Memory geometry; the selector's region granularity matches
        (``4 * words_per_region`` bytes).
    adjacent_fraction:
        Probability an injected fault is an adjacent burst rather than
        a random non-adjacent double (the burst profile knob).
    burst_lengths:
        ``((length, weight), ...)`` distribution for adjacent bursts
        (tuple-of-pairs so the config stays hashable/frozen).
    seed:
        RNG seed for the whole trial.
    """

    epochs: int = 24
    regions: int = 4
    words_per_region: int = 64
    faults_per_epoch: int = 3
    reads_per_epoch: int = 96
    adjacent_fraction: float = 1.0
    burst_lengths: tuple[tuple[int, float], ...] = ((2, 0.8), (3, 0.2))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.faults_per_epoch < 1:
            raise AnalysisError("epochs and faults_per_epoch must be >= 1")
        if self.regions < 1 or self.words_per_region < 1:
            raise AnalysisError("regions and words_per_region must be >= 1")
        if not 0.0 <= self.adjacent_fraction <= 1.0:
            raise AnalysisError(
                f"adjacent_fraction must be in [0, 1], "
                f"got {self.adjacent_fraction}"
            )

    @property
    def region_bytes(self) -> int:
        """Bytes spanned by one region (4-byte words)."""
        return 4 * self.words_per_region


@dataclass(frozen=True)
class MbuOutcome:
    """What happened over one MBU trial."""

    arm: str
    faults_injected: int
    faults_scored: int
    hw_corrected: int
    heuristic_correct: int
    silent_corruptions: int
    unrecovered: int
    switches: int
    regions_upgraded: int
    joules: float

    @property
    def recovered(self) -> int:
        """Faults that ended with the true word delivered."""
        return self.hw_corrected + self.heuristic_correct

    @property
    def recovery_rate(self) -> float:
        """Fraction of scored faults recovered to the true word."""
        return self.recovered / self.faults_scored if self.faults_scored else 0.0

    @property
    def joules_per_fault(self) -> float:
        """Modeled energy per scored fault."""
        return self.joules / self.faults_scored if self.faults_scored else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready record (derived rates included)."""
        return {
            "arm": self.arm,
            "faults_injected": self.faults_injected,
            "faults_scored": self.faults_scored,
            "hw_corrected": self.hw_corrected,
            "heuristic_correct": self.heuristic_correct,
            "silent_corruptions": self.silent_corruptions,
            "unrecovered": self.unrecovered,
            "switches": self.switches,
            "regions_upgraded": self.regions_upgraded,
            "recovery_rate": round(self.recovery_rate, 4),
            "joules": self.joules,
            "joules_per_fault": self.joules_per_fault,
        }


class _Region:
    """One region's memory, truth words, and recovery plumbing."""

    def __init__(
        self,
        code: LinearBlockCode,
        base_address: int,
        words: list[int],
        context: RecoveryContext,
        rng_seed: int,
    ) -> None:
        self.base_address = base_address
        self.truth = {
            base_address + 4 * index: word for index, word in enumerate(words)
        }
        self.context = context
        self.rng_seed = rng_seed
        self._build(code)

    def _build(self, code: LinearBlockCode) -> None:
        self.code = code
        pipeline = RecoveryPipeline(
            SwdEcc(code, rng=random.Random(self.rng_seed))
        )
        policy = HeuristicPolicy(pipeline, lambda address: self.context)
        self.memory = EccMemory(code, policy)
        for address, word in self.truth.items():
            self.memory.write(address, word)

    def reencode(self, code: LinearBlockCode, score_read) -> None:
        """Migrate to *code*, reading every word through ECC first.

        Latent faults surface (and are scored) during the migration
        read — switching codes is not a free scrub.
        """
        migrated = {
            address: score_read(self, address)
            for address in sorted(self.truth)
        }
        self._build(code)
        for address, word in migrated.items():
            self.memory.write(address, word)


def run_mbu_trial(arm: str, config: MbuConfig) -> MbuOutcome:
    """Run one trial of *arm* under *config* (see module docstring)."""
    if arm not in MBU_ARMS:
        raise AnalysisError(f"unknown arm {arm!r}; expected one of {MBU_ARMS}")
    rng = random.Random(config.seed)
    image = synthesize_benchmark(
        "mcf",
        length=max(40, config.regions * config.words_per_region),
        seed=2016 + config.seed,
    )
    context = RecoveryContext.for_instructions(FrequencyTable.from_image(image))
    secded = canonical_secded_39_32()
    daec = daec_code()
    start_code = daec if arm == "static-daec-41-32" else secded

    words = list(image.words)

    def region_of(address: int) -> _Region:
        return regions[address // config.region_bytes]

    counts = {
        "faults": 0, "scored": 0, "hw": 0, "heur": 0,
        "silent": 0, "unrecovered": 0, "switches": 0,
    }

    def score_read(region: _Region, address: int) -> int:
        """Read *address*; score its fault (if any) exactly once.

        Returns the word to carry forward.  After scoring, the result
        is written back and adopted as the new reference, so one fault
        is one verdict no matter how often the address is re-read.
        """
        truth = region.truth[address]
        faulty = region.memory.raw_codeword(address) != region.code.encode(truth)
        try:
            result = region.memory.read(address)
        except (UncorrectableError, RecoveryError):
            counts["scored"] += 1
            counts["unrecovered"] += 1
            # Operator repair: restore the true word and move on.
            region.memory.write(address, truth)
            return truth
        if not faulty:
            return result.word
        counts["scored"] += 1
        if result.status is DecodeStatus.DUE and event_log.last() is not None:
            event_log.annotate_last(address=address, true_message=truth)
        if result.word == truth:
            if result.status is DecodeStatus.DUE:
                counts["heur"] += 1
            else:
                counts["hw"] += 1
        else:
            counts["silent"] += 1
        region.memory.write(address, result.word)
        region.truth[address] = result.word
        return result.word

    selector: AdaptiveCodeSelector | None = None
    event_log = obs_events.EventLog()
    # Engines and the selector capture the event log at construction:
    # swap in a private log *before* building any region pipeline so
    # their DUEs land here and the selector watches them (and
    # concurrent trials in one process don't cross-talk).
    previous_log = obs_events.set_event_log(event_log)
    model = obs_energy.get_energy_model()
    try:
        regions = [
            _Region(
                start_code,
                index * config.region_bytes,
                words[
                    index * config.words_per_region:
                    (index + 1) * config.words_per_region
                ],
                context,
                rng_seed=config.seed * 1000 + index,
            )
            for index in range(config.regions)
        ]
        if arm == "adaptive":
            selector = AdaptiveCodeSelector(
                base_code=secded,
                upgrade_code=daec,
                policy=SelectorPolicy(
                    min_samples=8,
                    window=64,
                    region_bytes=config.region_bytes,
                ),
            )
        ops_before = obs_energy.op_counts(model=model)
        burst_lengths = dict(config.burst_lengths)
        all_addresses = [
            address for region in regions for address in sorted(region.truth)
        ]
        for _ in range(config.epochs):
            for _ in range(config.faults_per_epoch):
                counts["faults"] += 1
                region = regions[rng.randrange(config.regions)]
                injector = FaultInjector(region.memory, rng=rng)
                address = rng.choice(sorted(region.truth))
                if rng.random() < config.adjacent_fraction:
                    injector.inject_adjacent_burst(
                        address, burst_lengths=burst_lengths
                    )
                else:
                    n = region.code.n
                    first = rng.randrange(n)
                    second = rng.randrange(n)
                    while abs(first - second) <= 1:
                        second = rng.randrange(n)
                    injector.inject_at(address, (min(first, second),
                                                 max(first, second)))
            for _ in range(config.reads_per_epoch):
                address = rng.choice(all_addresses)
                score_read(region_of(address), address)
            if selector is not None:
                for switch in selector.poll():
                    counts["switches"] += 1
                    new_code = daec if switch.new_code_id == "daec-41-32" else secded
                    regions[switch.region].reencode(new_code, score_read)
        ops_after = obs_energy.op_counts(model=model)
    finally:
        obs_events.set_event_log(previous_log)
    joules = model.joules({
        name: ops_after[name] - ops_before.get(name, 0)
        for name in ops_after
    })
    upgraded = (
        config.regions if arm == "static-daec-41-32"
        else sum(
            1 for code_id in (selector.assignments().values() if selector else ())
            if code_id == "daec-41-32"
        )
    )
    return MbuOutcome(
        arm=arm,
        faults_injected=counts["faults"],
        faults_scored=counts["scored"],
        hw_corrected=counts["hw"],
        heuristic_correct=counts["heur"],
        silent_corruptions=counts["silent"],
        unrecovered=counts["unrecovered"],
        switches=counts["switches"],
        regions_upgraded=upgraded,
        joules=joules,
    )


def _mbu_trial_worker(payload) -> MbuOutcome:
    """Run one fully-seeded trial (parallel-map worker)."""
    arm, config = payload
    return run_mbu_trial(arm, config)


def mbu_study(
    profiles: dict[str, float] | None = None,
    trials: int = 3,
    base_config: MbuConfig | None = None,
    jobs: int = 1,
    progress: SweepProgress | None = None,
) -> dict[str, dict[str, dict[str, float]]]:
    """Compare the three arms across burst profiles.

    Returns ``{profile: {arm: {metric: mean value}}}``.  Every trial is
    fully seeded by its config, so the study is deterministic
    regardless of *jobs*.
    """
    if trials < 1:
        raise AnalysisError("trials must be >= 1")
    profiles = profiles if profiles is not None else dict(DEFAULT_PROFILES)
    base = base_config or MbuConfig()
    cells = [
        (profile_name, arm)
        for profile_name in profiles
        for arm in MBU_ARMS
    ]
    payloads = [
        (
            arm,
            MbuConfig(
                epochs=base.epochs,
                regions=base.regions,
                words_per_region=base.words_per_region,
                faults_per_epoch=base.faults_per_epoch,
                reads_per_epoch=base.reads_per_epoch,
                adjacent_fraction=profiles[profile_name],
                burst_lengths=base.burst_lengths,
                seed=base.seed + trial,
            ),
        )
        for profile_name, arm in cells
        for trial in range(trials)
    ]
    owns_progress = progress is None
    if progress is None:
        progress = SweepProgress(unit="trials")
    progress.add_total(len(payloads))

    def _trial_done(index, outcome, wall_seconds):
        progress.on_chunk(1, wall_seconds)

    outcomes = parallel_map(
        _mbu_trial_worker, payloads, jobs, on_result=_trial_done
    )
    if owns_progress:
        progress.finish()
    study: dict[str, dict[str, dict[str, float]]] = {}
    for cell_index, (profile_name, arm) in enumerate(cells):
        block = outcomes[cell_index * trials:(cell_index + 1) * trials]
        study.setdefault(profile_name, {})[arm] = {
            "recovery_rate":
                sum(o.recovery_rate for o in block) / trials,
            "mean_silent_corruptions":
                sum(o.silent_corruptions for o in block) / trials,
            "mean_hw_corrected":
                sum(o.hw_corrected for o in block) / trials,
            "mean_heuristic_correct":
                sum(o.heuristic_correct for o in block) / trials,
            "mean_switches":
                sum(o.switches for o in block) / trials,
            "mean_regions_upgraded":
                sum(o.regions_upgraded for o in block) / trials,
            "joules_per_fault":
                sum(o.joules_per_fault for o in block) / trials,
        }
    return study


def append_mbu_record(
    path: str | Path,
    study: Mapping[str, Mapping[str, Mapping[str, float]]],
    timestamp: str,
    meta: Mapping[str, object] | None = None,
) -> int:
    """Append one MBU-study record to the JSON list at *path*.

    The record carries its configuration (*meta*) next to the measured
    study; the file is read and written by
    :func:`repro.analysis.records.append_record`.  Returns the new
    record count.
    """
    record: dict[str, object] = {
        "timestamp": timestamp,
        "study": "mbu",
        "profiles": {
            profile: {arm: dict(metrics) for arm, metrics in arms.items()}
            for profile, arms in study.items()
        },
    }
    if meta:
        record.update(dict(meta))
    return append_record(path, record)
