"""The unified experiment engine: dedup, fan-out, and result caching.

One :class:`Runner` serves every analysis harness and CLI tool:

* **Functional dedup** -- one dynamic trace per distinct
  :class:`~repro.runner.experiment.ExperimentOptions` value is generated
  once (in-process memo) and shared across all timing configurations.
  Experiment identity is content only: options that build the same
  program over the same inputs (e.g. two feature levels of a kernel
  without rotates) share one cache key, and with the cache enabled a
  batch simulates such a run once and serves the other copies from its
  record.
* **One feed loop** -- every timing run builds one pipeline per distinct
  machine and feeds each chunk of a
  :class:`~repro.sim.trace.TraceSource` to every pipeline.  Configs the
  program cannot tell apart (equal :func:`~repro.sim.timing.timing_view`)
  share one pipeline, and each still gets its own result.  A group picks
  its source from what the process can observe: the trace already in
  memory, else the trace blob in the cache, else a live kernel stream
  that executes the kernel chunk by chunk at bounded trace memory.
* **Fan-out** -- cache-missing work is grouped by options and dispatched
  across a process pool when ``jobs > 1``; each worker runs the group's
  functional simulation once, feeding every timing config.  Timing
  simulation is deterministic, so parallel results are bit-identical to
  serial ones.  If a pool cannot be created (restricted sandboxes) or a
  worker dies, the groups the pool did not finish run serially.
* **Result caching** -- per-(experiment, config) :class:`SimStats` records
  persist in a :class:`~repro.runner.cache.ResultCache` keyed by a content
  hash of the kernel program bytes, functional inputs, machine config and
  runner version, so repeated report/benchmark invocations are near-instant.
* **Metrics** -- per-run wall time (broken down by phase: functional
  simulation, timing simulation, cache probing), cache hit/miss and
  instructions simulated flow through :class:`RunnerStats` and an optional
  per-result ``stats_hook`` callable.
* **Observability** -- an optional :class:`repro.obs.EventBus` is the
  runner's one telemetry channel: fleet events, one ``result`` event per
  experiment, and a span event per phase (``cache-probe``,
  ``functional``, ``chunk``, ``timing`` per pipeline, ``parallel-fanout``)
  carrying its ``start`` and host ``seconds``.  The metrics snapshot,
  the Perfetto trace and the ``--progress`` line are sinks on that bus
  (:mod:`repro.obs.views`).  Without a bus nothing is published, at zero
  cost, and no :mod:`repro.obs` module is imported.

See ``docs/runner.md`` and ``docs/observability.md`` for the full API
walkthrough.
"""

from __future__ import annotations

import itertools
import sys
import time
import warnings
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, fields

from repro.ciphers.suite import SUITE_BY_NAME
from repro.kernels import registry as kernel_registry
from repro.kernels.runtime import KernelRun
from repro.kernels.setup_registry import make_setup
from repro.runner.cache import RUNNER_VERSION, ResultCache, content_key
from repro.runner.experiment import Experiment, ExperimentOptions
from repro.runner.telemetry import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_STUCK_AFTER,
    FleetMonitor,
)
from repro.sim.stats import SimStats
from repro.sim.timing import group_by_view, make_pipeline, shared_stats
from repro.sim.trace import (
    ADDR_TYPECODE,
    DEFAULT_CHUNK_SIZE,
    SEQ_TYPECODE,
    VALUE_TYPECODE,
    StaticInfo,
    Trace,
    TraceSource,
)


@dataclass
class RunResult:
    """Outcome of one experiment: timing stats plus provenance metadata."""

    experiment: Experiment
    stats: SimStats
    #: Functional instruction count of the underlying kernel run.
    instructions: int
    session_bytes: int
    #: Served from a record rather than simulated for this result: a disk
    #: cache hit, or a copy of an experiment with the same key that ran
    #: earlier in the same batch.  A result timed on the pipeline of an
    #: equal-view config in its group (see ``Runner._feed``) is not cached:
    #: nothing came from a record, and its ``wall_time`` is 0.0.
    cached: bool = False
    wall_time: float = 0.0

    @property
    def cipher(self) -> str:
        return self.experiment.options.cipher

    @property
    def config_name(self) -> str:
        return self.experiment.config.name

    @property
    def instructions_per_byte(self) -> float:
        return self.instructions / self.session_bytes if self.session_bytes \
            else 0.0

    def bytes_per_kilocycle(self) -> float:
        return self.stats.bytes_per_kilocycle(self.session_bytes)


@dataclass
class RunnerStats:
    """Aggregate counters for one runner's lifetime.

    Wall time is accounted per phase -- functional simulation, timing
    simulation, and cache probing (key hashing + disk lookups) -- and
    covers work done in pool workers too: workers report their functional
    time back with their results.  ``wall_time`` is the sum of the phases.

    ``timing_runs`` and ``instructions_simulated`` count timing pipelines;
    ``timing_shared`` counts results served by another config's pipeline
    because the program cannot tell the two machines apart.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    functional_runs: int = 0
    timing_runs: int = 0
    timing_shared: int = 0
    instructions_simulated: int = 0
    wall_time_functional: float = 0.0
    wall_time_timing: float = 0.0
    wall_time_cache: float = 0.0
    #: Largest dynamic-trace payload held in memory at once (bytes): one
    #: chunk of a live kernel stream (or, with the cache on, the compact
    #: columns it writes through as a trace blob), the whole trace when it
    #: is materialized.
    peak_trace_bytes: int = 0

    def note_trace_bytes(self, nbytes: int) -> None:
        if nbytes > self.peak_trace_bytes:
            self.peak_trace_bytes = nbytes

    @property
    def wall_time(self) -> float:
        return (self.wall_time_functional + self.wall_time_timing
                + self.wall_time_cache)

    def phase_breakdown(self) -> dict[str, float]:
        return {
            "functional": self.wall_time_functional,
            "timing": self.wall_time_timing,
            "cache": self.wall_time_cache,
        }

    def summary(self) -> str:
        return (
            f"runner: {self.cache_hits} cache hits, "
            f"{self.cache_misses} misses, {self.functional_runs} functional "
            f"+ {self.timing_runs} timing runs, "
            f"{self.timing_shared} results shared, "
            f"{self.instructions_simulated} instructions simulated, "
            f"{self.wall_time:.1f}s wall "
            f"(functional {self.wall_time_functional:.1f}s, "
            f"timing {self.wall_time_timing:.1f}s, "
            f"cache {self.wall_time_cache:.1f}s)"
        )


def _stats_to_dict(stats: SimStats) -> dict:
    record = asdict(stats)
    record["extra"] = {
        key: value for key, value in stats.extra.items()
        if isinstance(value, (bool, int, float, str))
    }
    return record


def _stats_from_dict(record: dict) -> SimStats:
    known = {field.name for field in fields(SimStats)}
    if "config_name" not in record:
        raise KeyError("config_name")
    return SimStats(**{key: record[key] for key in record if key in known})


class Runner:
    """Parallel, cached driver for kernel timing experiments."""

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        jobs: int = 1,
        stats_hook=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        backend: str | None = None,
        timing_engine: str | None = None,
        bus=None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        stuck_after: float = DEFAULT_STUCK_AFTER,
    ):
        self.cache = cache if cache is not None else ResultCache.from_env()
        self.jobs = max(1, int(jobs))
        self.stats_hook = stats_hook
        #: Optional :class:`repro.obs.EventBus`, the one telemetry
        #: channel: fleet events (:mod:`repro.runner.telemetry`, emitted
        #: identically by the serial and multiprocessing paths), cache
        #: traffic, per-experiment results and per-phase span events.
        #: ``--events-out``, ``--metrics-out``, ``--trace-out`` and
        #: ``--progress`` are sinks on it.
        self.bus = bus
        if bus is not None and getattr(self.cache, "bus", None) is None:
            self.cache.bus = bus
        self.heartbeat_interval = heartbeat_interval
        self.stuck_after = stuck_after
        #: Trace entries per chunk of a live kernel stream; results are
        #: identical at any size.
        self.chunk_size = max(1, int(chunk_size))
        #: The stack: the execution backend of every functional run and
        #: the timing engine (``"generic"``/``"specialized"``) of every
        #: timing run.  Never part of cache keys: backends and engines are
        #: bit-identical, so records interchange.
        self.backend = backend
        self.timing_engine = timing_engine
        self.stats = RunnerStats()
        self._kernels: dict[tuple, object] = {}
        self._functional: dict[ExperimentOptions, object] = {}
        self._fingerprints: dict[ExperimentOptions, str] = {}

    def _now(self) -> float:
        """The bus clock, where a span event starts (0.0 without a bus)."""
        return self.bus.now() if self.bus is not None else 0.0

    def _publish(self, type: str, data: dict) -> None:
        if self.bus is not None:
            self.bus.publish("runner", type, data)

    # -- kernel construction and content hashing ---------------------------

    def _resolved_key(self, options: ExperimentOptions) -> bytes:
        if options.key is not None:
            return options.key
        return bytes(range(SUITE_BY_NAME[options.cipher].key_bytes))

    def _kernel(self, options: ExperimentOptions):
        memo_key = (options.cipher, int(options.features),
                    self._resolved_key(options), options.base_offset)
        kernel = self._kernels.get(memo_key)
        if kernel is None:
            kernel = kernel_registry.KERNELS[options.cipher](
                self._resolved_key(options), options.features
            )
            kernel.base_offset = options.base_offset
            self._kernels[memo_key] = kernel
        return kernel

    def _warm_ranges(self, options: ExperimentOptions):
        """The cache-warm ranges a kernel run reports, without running it."""
        if options.kind == "setup":
            return None
        kernel = self._kernel(options)
        layout = kernel.layout_for(options.session_bytes)
        return [
            (layout.tables, kernel.tables_bytes),
            (layout.keys, kernel.keys_bytes),
            (layout.iv, 64),
        ]

    def fingerprint(self, options: ExperimentOptions) -> str:
        """Content hash of one functional run: program bytes + inputs.

        Only what determines the run is hashed.  The feature label is not:
        the program digest covers the code a level selects, so two levels
        that emit the same program are one run.  That relies on a kernel's
        memory image being a function of the hashed fields, which
        ``tests/runner/test_engine.py`` checks for every kernel.
        ``record_values`` is deliberately excluded -- recording destination
        values changes what the trace carries in memory, not any simulated
        result.
        """
        cached = self._fingerprints.get(options)
        if cached is not None:
            return cached
        key = self._resolved_key(options)
        if options.kind == "setup":
            setup = make_setup(options.cipher, key)
            program = setup.build_program(setup.layout()).finalize()
            inputs = {"plaintext": b"", "iv": b""}
        else:
            kernel = self._kernel(options)
            program = kernel.program_for(
                options.session_bytes, decrypt=options.kind == "decrypt"
            )
            inputs = {
                "plaintext": options.resolved_plaintext(),
                "iv": options.iv if options.iv is not None else b"",
            }
        digest = content_key({
            "runner_version": RUNNER_VERSION,
            "kind": options.kind,
            "cipher": options.cipher,
            "session_bytes": options.session_bytes,
            "base_offset": options.base_offset,
            "key": key,
            "program": program.digest(),
            "warm": self._warm_ranges(options),
            **inputs,
        })
        self._fingerprints[options] = digest
        return digest

    def experiment_key(self, experiment: Experiment) -> str:
        """Content hash naming one (functional run, machine config) result."""
        return content_key({
            "record": "experiment",
            "fingerprint": self.fingerprint(experiment.options),
            "config": asdict(experiment.config),
        })

    # -- functional simulation (memoized + blob-cached) --------------------

    def _trace_blob_key(self, options: ExperimentOptions) -> str | None:
        """Disk key of the materialized functional trace, if cacheable."""
        if options.kind == "setup":
            return None
        return content_key({
            "record": "functional-trace",
            "version": RUNNER_VERSION,
            "fingerprint": self.fingerprint(options),
            "record_values": options.record_values,
        })

    def _run_from_blob(self, options: ExperimentOptions, blob: dict):
        """Rebuild a ``KernelRun`` from a cached trace blob."""
        kernel = self._kernel(options)
        program = kernel.program_for(
            options.session_bytes, decrypt=options.kind == "decrypt"
        )
        trace = Trace(
            program=program,
            static=StaticInfo.from_program(program),
            seq=blob["seq"],
            addrs=blob["addrs"],
            values=blob.get("values"),
            instructions_executed=int(blob["instructions"]),
        )
        return KernelRun(
            trace=trace,
            ciphertext=blob["ciphertext"],
            instructions=int(blob["instructions"]),
            session_bytes=int(blob["session_bytes"]),
            warm_ranges=[tuple(pair) for pair in blob["warm_ranges"]],
        )

    def _put_trace_blob(self, key: str, run, seq, addrs, values) -> None:
        """Persist one kernel run's compact trace columns as a blob."""
        self.cache.put_blob(key, {
            "version": RUNNER_VERSION,
            "seq": seq,
            "addrs": addrs,
            "values": values,
            "instructions": run.instructions,
            "ciphertext": run.ciphertext,
            "session_bytes": run.session_bytes,
            "warm_ranges": run.warm_ranges,
        })

    def _count_functional(self, options: ExperimentOptions, start: float,
                          seconds: float) -> None:
        """Account one functional execution, materialized or streamed.

        A streamed execution interleaves with timing, so its span event
        reports the measured functional share from ``start`` on.
        """
        self.stats.functional_runs += 1
        self.stats.wall_time_functional += seconds
        self._publish("functional", {
            "cipher": options.cipher, "kind": options.kind,
            "session_bytes": options.session_bytes,
            "start": start, "seconds": seconds,
        })

    def _kernel_input(self, kernel, options: ExperimentOptions) -> bytes:
        """The bytes a kernel run consumes.

        A decrypt run consumes the encryption of the plaintext; that
        preliminary encryption records no trace.
        """
        data = options.resolved_plaintext()
        if options.kind == "decrypt":
            data = kernel.encrypt(
                data, options.iv, record_trace=False, backend=self.backend
            ).ciphertext
        return data

    def functional(self, options: ExperimentOptions):
        """Run (or reuse) the functional simulation for ``options``.

        Returns the kernel's ``KernelRun`` (or ``SetupRun`` for
        ``kind='setup'``).  One trace per distinct options value per
        process, shared by every timing config.  Materialized traces are
        persisted as compact array blobs, so a later process asking for
        the same functional run deserializes it instead of re-executing.
        """
        run = self._functional.get(options)
        if run is not None:
            return run
        blob_key = self._trace_blob_key(options)
        if blob_key is not None:
            probe_start = time.perf_counter()
            blob = self.cache.get_blob(blob_key)
            self.stats.wall_time_cache += time.perf_counter() - probe_start
            run = self._parsed(blob, lambda blob: (
                self._run_from_blob(options, blob)
            ))
            if run is not None:
                self.stats.note_trace_bytes(run.trace.nbytes)
                self._functional[options] = run
                return run
        start = self._now()
        began = time.perf_counter()
        if options.kind == "setup":
            run = make_setup(
                options.cipher, self._resolved_key(options)
            ).run(backend=self.backend)
        else:
            kernel = self._kernel(options)
            execute = (kernel.decrypt if options.kind == "decrypt"
                       else kernel.encrypt)
            run = execute(
                self._kernel_input(kernel, options), options.iv,
                record_values=options.record_values, backend=self.backend,
            )
        self._count_functional(options, start, time.perf_counter() - began)
        if run.trace is not None:
            self.stats.note_trace_bytes(run.trace.nbytes)
            if blob_key is not None:
                self._put_trace_blob(blob_key, run, run.trace.seq,
                                     run.trace.addrs, run.trace.values)
        self._functional[options] = run
        return run

    # -- the experiment pipeline -------------------------------------------

    def run(self, experiments) -> list[RunResult]:
        """Execute a batch of experiments; results keep the input order.

        Cache hits are served from disk; misses are grouped by options (one
        functional run per group) and executed serially or across the
        process pool.  With the cache enabled, an experiment whose key is
        already pending earlier in the batch is a hit on that pending
        result: it waits for the first copy's record and comes back with
        ``cached=True``.
        """
        experiments = list(experiments)
        results: list[RunResult | None] = [None] * len(experiments)
        pending: dict[ExperimentOptions, list[tuple[int, Experiment, str]]]
        pending = {}
        # Key of each pending experiment -> later copies served from it.
        followers: dict[str, list[tuple[int, Experiment]]] = {}
        start = self._now()
        probe_start = time.perf_counter()
        for index, experiment in enumerate(experiments):
            key = self.experiment_key(experiment)
            if key in followers:
                self.stats.cache_hits += 1
                followers[key].append((index, experiment))
                continue
            result = self._parsed(self.cache.get(key), lambda record: (
                self._result_from_record(experiment, record, cached=True)
            ))
            if result is not None:
                self.stats.cache_hits += 1
                results[index] = result
                self._publish_result(result)
                if self.stats_hook is not None:
                    self.stats_hook(result)
            else:
                self.stats.cache_misses += 1
                pending.setdefault(experiment.options, []).append(
                    (index, experiment, key)
                )
                if self.cache.enabled:
                    followers[key] = []
        seconds = time.perf_counter() - probe_start
        self.stats.wall_time_cache += seconds
        misses = sum(len(entries) for entries in pending.values())
        self._publish("cache-probe", {
            "experiments": len(experiments),
            "hits": len(experiments) - misses, "misses": misses,
            "start": start, "seconds": seconds,
        })
        if pending:
            self._execute_pending(pending, followers, results)
        return results  # type: ignore[return-value]

    def run_one(self, experiment: Experiment) -> RunResult:
        return self.run([experiment])[0]

    def _parsed(self, record: dict | None, parse):
        """``parse(record)``, or ``None`` when the cache had no record.

        A record that no longer parses (schema drift in an old record)
        counts as a cache error and is recomputed.
        """
        if record is None:
            return None
        try:
            return parse(record)
        except (KeyError, TypeError, ValueError):
            self.cache.errors += 1
            return None

    def _monitor(self, pending) -> FleetMonitor:
        return FleetMonitor(
            total_groups=len(pending),
            total_experiments=sum(len(e) for e in pending.values()),
            jobs=self.jobs,
            bus=self.bus,
            interval=self.heartbeat_interval,
            stuck_after=self.stuck_after,
        )

    @staticmethod
    def _group_labels(pending) -> dict:
        """One fleet label per group, unique within the batch.

        ``cipher[features]/kind:<bytes>B``; groups that still match
        (another key, plaintext or backend) are numbered ``#2``, ``#3``...
        """
        labels, seen = {}, Counter()
        for options in pending:
            name = (f"{options.cipher}[{options.features.label}]/"
                    f"{options.kind}:{options.session_bytes}B")
            seen[name] += 1
            labels[options] = (name if seen[name] == 1
                               else f"{name}#{seen[name]}")
        return labels

    def _execute_pending(self, pending, followers, results) -> None:
        # Groups whose trace already lives in this process run locally; cold
        # groups are eligible for the pool, and whatever the pool does not
        # finish runs here.
        local = {opts: entries for opts, entries in pending.items()
                 if opts in self._functional}
        cold = {opts: entries for opts, entries in pending.items()
                if opts not in self._functional}
        computed: dict[ExperimentOptions, tuple] = {}
        labels = self._group_labels(pending)
        with self._monitor(pending) as monitor:
            if cold and self.jobs > 1 and len(cold) > 1:
                computed.update(
                    self._run_groups_parallel(cold, labels, monitor))
            for options, entries in {**local, **cold}.items():
                if options in computed:
                    continue
                monitor.dispatch(labels[options])
                computed[options] = self._run_group_records(
                    options, [entry[1].config for entry in entries]
                )
                monitor.complete(labels[options])
        for options, entries in pending.items():
            records, leaders = computed[options]
            for position, ((index, experiment, key), record) in enumerate(
                    zip(entries, records)):
                self.cache.put(key, record)
                result = self._result_from_record(
                    experiment, record, cached=False
                )
                leader = leaders[position]
                self._count_timing(result.stats, leader == position)
                self.stats.wall_time_timing += result.wall_time
                results[index] = result
                self._publish_result(
                    result, shared_with=(None if leader == position
                                         else entries[leader][1].config.name)
                )
                if self.stats_hook is not None:
                    self.stats_hook(result)
                for copy_index, copy in followers.get(key, ()):
                    served = self._result_from_record(copy, record,
                                                      cached=True)
                    results[copy_index] = served
                    self._publish_result(served)
                    if self.stats_hook is not None:
                        self.stats_hook(served)

    def _count_timing(self, stats: SimStats, own_pipeline: bool) -> None:
        """Account one simulated result: a pipeline run, or a shared one."""
        if own_pipeline:
            self.stats.timing_runs += 1
            self.stats.instructions_simulated += stats.instructions
        else:
            self.stats.timing_shared += 1

    def _publish_result(self, result: RunResult,
                        shared_with: str | None = None) -> None:
        """One ledger event per experiment result, with the slot account.

        The flattened ``slots.*`` fractions feed the dashboard's
        stall-category bars without it ever deserializing a SimStats.
        A result timed on another config's pipeline names that config as
        ``shared_with``.
        """
        if self.bus is None:
            return
        data = {
            "cipher": result.cipher,
            "config": result.config_name,
            "cycles": result.stats.cycles,
            "instructions": result.instructions,
            "ipc": round(result.stats.ipc, 4),
            "session_bytes": result.session_bytes,
            "cached": result.cached,
            "wall_time": round(result.wall_time, 6),
        }
        if shared_with is not None:
            data["shared_with"] = shared_with
        for category, fraction in result.stats.stall_fractions().items():
            data[f"slots.{category}"] = round(fraction, 6)
        self.bus.publish("runner", "result", data)

    def _run_groups_parallel(self, pending, labels,
                             monitor: FleetMonitor) -> dict:
        """Run cold groups across the pool; returns the finished ones.

        Maps each finished group's options to its records and leaders.  A
        group the pool did not finish -- its worker died, or no pool could
        be created -- is left out, still accounted as dispatched, for the
        serial path to run.  The events a worker published on its active
        bus (codegen) are republished here, in order, on this process's
        active bus; a ``parallel-fanout`` span event times the pool when
        it finished at least one group.
        """
        # Imported on first use: it adds ~25 ms to every process's start-up
        # (multiprocessing, logging), and most runs are serial.
        from concurrent.futures import ProcessPoolExecutor

        specs = [
            (options, [entry[1].config for entry in entries],
             self.chunk_size, self.backend, self.timing_engine)
            for options, entries in pending.items()
        ]
        futures = {}
        failure = None
        start = self._now()
        began = time.perf_counter()
        try:
            with ProcessPoolExecutor(min(self.jobs, len(specs))) as pool:
                # One future per group, so the fleet monitor observes each
                # completion live: the callback reports a group the moment
                # its worker succeeds, keeping heartbeats/ETA accurate.  A
                # worker that dies breaks the pool, and every future it
                # leaves unfinished raises BrokenProcessPool.
                for spec in specs:
                    label = labels[spec[0]]
                    monitor.dispatch(label)
                    future = pool.submit(_worker_run_group, spec)
                    future.add_done_callback(
                        lambda done, label=label: done.exception()
                        or monitor.complete(label))
                    futures[spec[0]] = future
        except Exception as error:  # no pool, or it broke while submitting
            failure = error
        # Leaving the executor waited for every submitted future.
        seconds = time.perf_counter() - began
        outputs = {}
        for options, future in futures.items():
            error = future.exception()
            if error is None:
                outputs[options] = future.result()
            elif failure is None:
                failure = error
        if len(outputs) < len(specs):
            # The unfinished groups stay accounted as dispatched (the
            # serial path's dispatch() calls are idempotent), but their
            # timers and the watchdog's progress clock restart so the
            # ledger matches the pool path's event sequence.
            monitor.requeue_all()
            warnings.warn(
                f"parallel runner unavailable ({failure!r}); falling back "
                f"to serial execution for {len(specs) - len(outputs)} of "
                f"{len(specs)} groups",
                RuntimeWarning,
                stacklevel=3,
            )
        if outputs:
            self._publish("parallel-fanout", {
                "groups": len(specs), "jobs": self.jobs,
                "start": start, "seconds": seconds,
            })
        # Workers ran the functional simulations out of process; fold the
        # wall time (and peak trace memory) they report back.
        self.stats.functional_runs += len(outputs)
        for output in outputs.values():
            self.stats.wall_time_functional += output["functional_wall_time"]
            self.stats.note_trace_bytes(output["peak_trace_bytes"])
            if output["events"]:
                from repro.obs.events import publish_event
                for event in output["events"]:
                    publish_event(event["source"], event["type"],
                                  event["data"])
        return {options: (output["records"], output["leaders"])
                for options, output in outputs.items()}

    def _run_group_records(self, options, configs):
        """Time one functional run on every config of its group.

        Returns one record per config and, per config, the index of the
        config whose pipeline served it (:meth:`_feed`).  The source is
        what this process can observe: the trace already in memory, else
        the trace blob in the cache, else a live kernel stream (setup runs
        always materialize through :meth:`functional`).
        A live stream executes the kernel once, chunk by chunk, while every
        pipeline consumes it, so peak trace memory is one chunk.  With the
        cache on, its compact columns are written through as the trace
        blob, so a later :meth:`functional` call (this process or another)
        deserializes instead of re-executing.
        """
        blob_key = self._trace_blob_key(options)
        stream = columns = None
        if (blob_key is None or options in self._functional
                or self.cache.has_blob(blob_key)):
            run = self.functional(options)
            source = run.trace
            warm = None if options.kind == "setup" else run.warm_ranges
        else:
            stream = self.kernel_stream(options)
            source, warm = stream.source, stream.warm_ranges
            if self.cache.enabled:
                columns = (array(SEQ_TYPECODE), array(ADDR_TYPECODE),
                           array(VALUE_TYPECODE) if options.record_values
                           else None)
        start = self._now()
        stats_list, seconds, functional_time, leaders = self._feed(
            source, configs, warm, self.timing_engine,
            options.cipher, columns,
        )
        if stream is not None:
            t0 = time.perf_counter()
            run = stream.finalize()
            functional_time += time.perf_counter() - t0
            if columns is not None:
                self._put_trace_blob(blob_key, run, *columns)
            self._count_functional(options, start, functional_time)
        records = []
        for config, stats, elapsed in zip(configs, stats_list, seconds):
            records.append({
                "version": RUNNER_VERSION,
                "cipher": options.cipher,
                "config": config.name,
                "instructions": run.instructions,
                "session_bytes": options.session_bytes,
                "stats": _stats_to_dict(stats),
                "wall_time": elapsed,
            })
        return records, leaders

    def kernel_stream(self, options, chunk_size: int | None = None):
        """A live single-pass kernel stream for one experiment's options.

        The runner's live source and the trace bisector
        (``repro.tools.diff bisect``) both need "the trace this
        experiment would produce" without materializing it; this builds
        exactly that stream -- same backend, same decrypt
        pre-encryption, destination values when the options record them,
        and the runner's chunk size unless ``chunk_size`` overrides it.
        Setup traces are short and always materialized, so they have no
        streaming form.
        """
        if options.kind == "setup":
            raise ValueError(
                "setup runs have no streaming form; use "
                "functional(options).trace"
            )
        kernel = self._kernel(options)
        return kernel.stream(
            self._kernel_input(kernel, options), options.iv,
            decrypt=options.kind == "decrypt",
            chunk_size=self.chunk_size if chunk_size is None else chunk_size,
            record_values=options.record_values, backend=self.backend,
        )

    def _feed(self, source: TraceSource, configs, warm_ranges, engine,
              cipher: str | None = None, columns=None):
        """The feed loop every timing run goes through.

        Builds one pipeline per distinct machine -- configs whose
        :func:`~repro.sim.timing.timing_view` over the source's program is
        equal share the first one's pipeline -- feeds each chunk of
        ``source`` to every pipeline as it is produced, and finishes them.
        A config that shares (a follower) gets the stats its own pipeline
        would have reported (:func:`~repro.sim.timing.shared_stats`).
        Returns the stats per config, each config's seconds (its
        pipeline's build, feeds and finish -- timing work -- and 0.0 for a
        follower), the seconds spent producing chunks, which for a live
        stream is the functional machine running, and the index of the
        config whose pipeline served each config (its own for a leader).
        ``columns`` -- ``seq``, ``addrs`` and ``values`` arrays (``values``
        may be ``None``) -- collect the chunks for a trace-blob
        write-through.  The span events are one ``chunk`` per chunk and one
        ``timing`` per pipeline, labeled with the experiment group's
        ``cipher`` (``trace-sim`` for :meth:`simulate`); a ``timing``
        event carries its pipeline's stats, so the metrics view folds the
        ``sim.*`` counters from it.
        """
        perf = time.perf_counter
        bus = self.bus
        label = cipher or "trace-sim"
        start = self._now()
        seconds = [0.0] * len(configs)
        pipelines = []
        t0 = perf()
        plan = group_by_view(configs, source.static)
        leaders = [leader for leader, _ in plan]
        for index, config in enumerate(configs):
            if leaders[index] == index:
                pipelines.append((index, make_pipeline(
                    config, source.static, source.program,
                    warm_ranges=warm_ranges, engine=engine,
                    ops=plan[index][1])))
                # The first build also carries the grouping.
                seconds[index] = perf() - t0
                t0 = perf()
        del plan  # each handed-over op table lives on, bound, in its pipeline
        producing = 0.0
        peak = 0
        chunks = source.chunks()
        for chunk_index in itertools.count():
            chunk_start = bus.now() if bus is not None else 0.0
            t0 = perf()
            chunk = next(chunks, None)
            producing += perf() - t0
            if chunk is None:
                break
            if columns is not None:
                parts = (chunk.seq, chunk.addrs, chunk.values)
                for column, part in zip(columns, parts):
                    if column is not None:
                        column.extend(part)
            nbytes = chunk.nbytes
            if nbytes > peak:
                peak = nbytes
            for index, pipeline in pipelines:
                t0 = perf()
                pipeline.feed(chunk)
                seconds[index] += perf() - t0
            if bus is not None:
                bus.publish("runner", "chunk", {
                    "label": label, "index": chunk_index,
                    "entries": len(chunk), "bytes": nbytes,
                    "start": chunk_start,
                    "seconds": bus.now() - chunk_start,
                })
        if columns is not None:
            # The write-through holds one compact trace at the end.
            peak = max(peak, sum(column.itemsize * len(column)
                                 for column in columns if column is not None))
        self.stats.note_trace_bytes(peak)
        stats_list = [None] * len(configs)
        for index, pipeline in pipelines:
            config = configs[index]
            t0 = perf()
            stats = pipeline.finish()
            seconds[index] += perf() - t0
            if bus is not None:
                bus.publish("runner", "timing", {
                    "label": label, "cipher": cipher, "config": config.name,
                    "start": start, "seconds": seconds[index],
                    "cycles": stats.cycles, "instructions": stats.instructions,
                    "issue_slots": stats.issue_slots,
                    "peak_trace_bytes": self.stats.peak_trace_bytes,
                    **{f"stall_slots.{category}": slots for category, slots
                       in stats.stall_slots.items() if slots},
                })
            stats_list[index] = stats
        for index, leader in enumerate(leaders):
            if leader != index:
                stats_list[index] = shared_stats(stats_list[leader],
                                                 configs[index])
        return stats_list, seconds, producing, leaders

    def _result_from_record(
        self, experiment: Experiment, record: dict, cached: bool
    ) -> RunResult:
        return RunResult(
            experiment=experiment,
            stats=_stats_from_dict(record["stats"]),
            instructions=int(record["instructions"]),
            session_bytes=int(record["session_bytes"]),
            cached=cached,
            wall_time=float(record.get("wall_time", 0.0)),
        )

    # -- generic cached channels (synthetic traces, derived metrics) -------

    def simulate(
        self,
        source: TraceSource,
        configs,
        warm_ranges=None,
        *,
        key_parts=None,
    ) -> list[SimStats]:
        """Timing-simulate any trace source on several configs.

        ``source`` is a materialized :class:`~repro.sim.trace.Trace` or a
        live single-pass :class:`~repro.sim.machine.StreamingTrace`; both
        go through the runner's one feed loop, so a stream is executed
        once and never materialized.  ``key_parts`` must content-identify
        the trace (e.g. the component fingerprints of a multisession
        interleaving, or a program digest); with it each config's result
        is cached under its own ``trace-sim`` key, and when every config
        hits the source is never read (a live machine never runs).
        Without it the simulation runs uncached.
        """
        configs = list(configs)
        stats_list: list[SimStats | None] = [None] * len(configs)
        keys: list[str | None] = [None] * len(configs)
        if key_parts is not None:
            for index, config in enumerate(configs):
                keys[index] = content_key({
                    "record": "trace-sim",
                    "version": RUNNER_VERSION,
                    "parts": key_parts,
                    "config": asdict(config),
                    "warm": warm_ranges,
                })
                stats_list[index] = self._parsed(
                    self.cache.get(keys[index]),
                    lambda record: _stats_from_dict(record["stats"]),
                )
            hits = sum(stats is not None for stats in stats_list)
            self.stats.cache_hits += hits
            self.stats.cache_misses += len(configs) - hits
        missing = [i for i, stats in enumerate(stats_list) if stats is None]
        if not missing:
            return stats_list  # type: ignore[return-value]
        simulated, seconds, producing, leaders = self._feed(
            source, [configs[i] for i in missing], warm_ranges,
            self.timing_engine,
        )
        self.stats.wall_time_functional += producing
        self.stats.wall_time_timing += sum(seconds)
        for position, (index, stats) in enumerate(zip(missing, simulated)):
            stats_list[index] = stats
            self._count_timing(stats, leaders[position] == position)
            if keys[index] is not None:
                self.cache.put(keys[index], {
                    "version": RUNNER_VERSION,
                    "stats": _stats_to_dict(stats),
                })
        return stats_list  # type: ignore[return-value]

    def cached_value(self, key_parts, compute):
        """Disk-cache an arbitrary JSON-serializable derived value.

        Used by harnesses whose result is not a :class:`SimStats` (op-mix
        histograms, value-prediction hit rates).  ``key_parts`` must include
        everything the value depends on -- typically a :meth:`fingerprint`.
        """
        key = content_key({
            "record": "value",
            "version": RUNNER_VERSION,
            "parts": key_parts,
        })
        record = self.cache.get(key)
        if record is not None and "value" in record:
            self.stats.cache_hits += 1
            return record["value"]
        if record is not None:
            self.cache.errors += 1
        self.stats.cache_misses += 1
        value = compute()
        self.cache.put(key, {"version": RUNNER_VERSION, "value": value})
        return value


def _worker_run_group(spec):
    """Pool entry point: one functional run + its timing configs.

    Returns the records, which config's pipeline served each, the
    worker's functional wall time and peak trace memory, so the parent
    runner accounts out-of-process work exactly like its own, and the
    events it published, for the parent to republish.  A forked worker
    inherits the parent's active bus, with its open ledger file and a
    lock the heartbeat thread may have held at the fork, so it installs
    a collecting bus of its own first.
    """
    options, configs, chunk_size, backend, timing_engine = spec
    events = []
    ledger = sys.modules.get("repro.obs.events")  # no bus without it
    if ledger is not None and ledger.active_bus() is not None:
        ledger.set_active_bus(ledger.EventBus().subscribe(events.append))
    worker = Runner(cache=ResultCache.disabled(), jobs=1,
                    chunk_size=chunk_size, backend=backend,
                    timing_engine=timing_engine)
    records, leaders = worker._run_group_records(options, configs)
    return {
        "records": records,
        "leaders": leaders,
        "functional_wall_time": worker.stats.wall_time_functional,
        "peak_trace_bytes": worker.stats.peak_trace_bytes,
        "events": events,
    }
