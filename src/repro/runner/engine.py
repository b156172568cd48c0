"""The unified experiment engine: dedup, fan-out, and result caching.

One :class:`Runner` serves every analysis harness and CLI tool:

* **Functional dedup** -- one dynamic trace per distinct
  :class:`~repro.runner.experiment.ExperimentOptions` value is generated
  once (in-process memo) and shared across all timing configurations.
* **Fan-out** -- cache-missing work is grouped by options and dispatched
  across a ``multiprocessing`` pool when ``jobs > 1``; each worker runs the
  group's functional simulation once, then every timing config against the
  shared trace.  Timing simulation is deterministic, so parallel results
  are bit-identical to serial ones.  If a pool cannot be created (restricted
  sandboxes) the runner falls back to serial execution.
* **Result caching** -- per-(experiment, config) :class:`SimStats` records
  persist in a :class:`~repro.runner.cache.ResultCache` keyed by a content
  hash of the kernel program bytes, functional inputs, machine config and
  runner version, so repeated report/benchmark invocations are near-instant.
* **Metrics** -- per-run wall time (broken down by phase: functional
  simulation, timing simulation, cache probing), cache hit/miss and
  instructions simulated flow through :class:`RunnerStats` and an optional
  per-result ``stats_hook`` callable.
* **Observability** -- an optional :class:`repro.obs.MetricsRegistry`
  receives runner and simulator counters, and an optional
  :class:`repro.obs.Tracer` records spans for every phase (functional
  runs, cache probes, per-config timing runs, the parallel fan-out), ready
  for Chrome/Perfetto export.  Both default to ``None`` at zero cost; the
  CLI tools enable them via ``--metrics-out`` / ``--trace-out``.

See ``docs/runner.md`` and ``docs/observability.md`` for the full API
walkthrough.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from array import array
from contextlib import contextmanager
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
from repro.sim.config import MachineConfig
from repro.sim.stats import SimStats
from repro.sim.timing import make_pipeline, record_sim_metrics, simulate
from repro.sim.trace import (
    ADDR_TYPECODE,
    DEFAULT_CHUNK_SIZE,
    SEQ_TYPECODE,
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
    """

    cache_hits: int = 0
    cache_misses: int = 0
    functional_runs: int = 0
    timing_runs: int = 0
    instructions_simulated: int = 0
    wall_time_functional: float = 0.0
    wall_time_timing: float = 0.0
    wall_time_cache: float = 0.0
    #: Largest dynamic-trace payload held in memory at once (bytes): one
    #: chunk on the streaming path, the whole trace on the batch path.
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
        metrics=None,
        tracer=None,
        stream: bool = True,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        backend: str | None = None,
        timing_engine: str | None = None,
        bus=None,
        heartbeat_hook=None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        stuck_after: float = DEFAULT_STUCK_AFTER,
    ):
        self.cache = cache if cache is not None else ResultCache.from_env()
        self.jobs = max(1, int(jobs))
        self.stats_hook = stats_hook
        self.metrics = metrics
        self.tracer = tracer
        #: Optional :class:`repro.obs.EventBus`: fleet telemetry, cache
        #: traffic and per-experiment results are published to the run
        #: ledger (``--events-out``, ``repro.tools.dash``).
        self.bus = bus
        if bus is not None and getattr(self.cache, "bus", None) is None:
            self.cache.bus = bus
        #: Fleet-telemetry sinks: ``heartbeat_hook`` receives the event
        #: stream documented in :mod:`repro.runner.telemetry` (the CLI
        #: ``--progress`` flag plugs a ProgressReporter in here), emitted
        #: identically by the serial and multiprocessing paths.
        self.heartbeat_hook = heartbeat_hook
        self.heartbeat_interval = heartbeat_interval
        self.stuck_after = stuck_after
        #: Overlap functional execution and timing through the chunked
        #: trace stream (bounded memory).  Per-experiment
        #: ``ExperimentOptions.stream`` overrides; results are identical.
        self.stream = stream
        self.chunk_size = max(1, int(chunk_size))
        #: Default execution backend for functional runs; per-experiment
        #: ``ExperimentOptions.backend`` overrides.  Never part of cache
        #: keys: backends are bit-identical, so records interchange.
        self.backend = backend
        #: Default timing engine (``"generic"``/``"specialized"``);
        #: per-experiment ``ExperimentOptions.timing_engine`` overrides.
        #: Never part of cache keys: engines are bit-identical, so
        #: records interchange.
        self.timing_engine = timing_engine
        self.stats = RunnerStats()
        self._kernels: dict[tuple, object] = {}
        self._functional: dict[ExperimentOptions, object] = {}
        self._fingerprints: dict[ExperimentOptions, str] = {}

    def _span(self, name: str, category: str, args: dict | None = None):
        """A tracer span, or an inert stand-in when tracing is off."""
        if self.tracer is not None:
            return self.tracer.span(name, category, args)
        return _null_span(args)

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

    def _resolved_backend(self, options: ExperimentOptions) -> str | None:
        return options.backend if options.backend is not None else self.backend

    def _resolved_timing_engine(
        self, options: ExperimentOptions
    ) -> str | None:
        if options.timing_engine is not None:
            return options.timing_engine
        return self.timing_engine

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
            "features": options.features.label,
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
            if blob is not None:
                try:
                    run = self._run_from_blob(options, blob)
                except (KeyError, TypeError, ValueError):
                    self.cache.errors += 1
                    run = None
                if run is not None:
                    self.stats.note_trace_bytes(run.trace.nbytes)
                    self._functional[options] = run
                    return run
        start = time.perf_counter()
        with self._span(f"functional:{options.cipher}", "functional",
                        {"cipher": options.cipher, "kind": options.kind,
                         "session_bytes": options.session_bytes}):
            backend = self._resolved_backend(options)
            if options.kind == "setup":
                run = make_setup(
                    options.cipher, self._resolved_key(options)
                ).run(backend=backend)
            else:
                kernel = self._kernel(options)
                data = options.resolved_plaintext()
                if options.kind == "decrypt":
                    ciphertext = kernel.encrypt(
                        data, options.iv, record_trace=False, backend=backend
                    ).ciphertext
                    run = kernel.decrypt(
                        ciphertext, options.iv,
                        record_values=options.record_values,
                        backend=backend,
                    )
                else:
                    run = kernel.encrypt(
                        data, options.iv,
                        record_values=options.record_values,
                        backend=backend,
                    )
        elapsed = time.perf_counter() - start
        self.stats.functional_runs += 1
        self.stats.wall_time_functional += elapsed
        if self.metrics is not None:
            self.metrics.counter("runner.functional_runs").inc()
            self.metrics.histogram(
                "runner.functional.seconds", {"cipher": options.cipher}
            ).observe(elapsed)
        if run.trace is not None:
            self.stats.note_trace_bytes(run.trace.nbytes)
            if blob_key is not None:
                self.cache.put_blob(blob_key, {
                    "version": RUNNER_VERSION,
                    "seq": run.trace.seq,
                    "addrs": run.trace.addrs,
                    "values": run.trace.values,
                    "instructions": run.instructions,
                    "ciphertext": run.ciphertext,
                    "session_bytes": run.session_bytes,
                    "warm_ranges": run.warm_ranges,
                })
        self._functional[options] = run
        return run

    # -- the experiment pipeline -------------------------------------------

    def run(self, experiments) -> list[RunResult]:
        """Execute a batch of experiments; results keep the input order.

        Cache hits are served from disk; misses are grouped by options (one
        functional run per group) and executed serially or across the
        process pool.
        """
        experiments = list(experiments)
        results: list[RunResult | None] = [None] * len(experiments)
        pending: dict[ExperimentOptions, list[tuple[int, Experiment, str]]]
        pending = {}
        probe_start = time.perf_counter()
        with self._span("cache-probe", "cache",
                        {"experiments": len(experiments)}) as span_args:
            for index, experiment in enumerate(experiments):
                key = self.experiment_key(experiment)
                result = self._lookup(experiment, key)
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
            span_args["hits"] = len(experiments) - sum(
                len(entries) for entries in pending.values()
            )
            span_args["misses"] = len(experiments) - span_args["hits"]
        self.stats.wall_time_cache += time.perf_counter() - probe_start
        if self.metrics is not None:
            self.metrics.counter("runner.cache.hits").inc(span_args["hits"])
            self.metrics.counter("runner.cache.misses").inc(
                span_args["misses"]
            )
        if pending:
            self._execute_pending(pending, results)
        return results  # type: ignore[return-value]

    def run_one(self, experiment: Experiment) -> RunResult:
        return self.run([experiment])[0]

    def _lookup(self, experiment: Experiment, key: str) -> RunResult | None:
        record = self.cache.get(key)
        if record is None:
            return None
        try:
            return self._result_from_record(experiment, record, cached=True)
        except (KeyError, TypeError, ValueError):
            # Schema drift in an old record: recompute.
            self.cache.errors += 1
            return None

    def _monitor(self, pending) -> FleetMonitor:
        return FleetMonitor(
            total_groups=len(pending),
            total_experiments=sum(len(e) for e in pending.values()),
            jobs=self.jobs,
            hook=self.heartbeat_hook,
            metrics=self.metrics,
            tracer=self.tracer,
            bus=self.bus,
            interval=self.heartbeat_interval,
            stuck_after=self.stuck_after,
        )

    @staticmethod
    def _group_label(options: ExperimentOptions) -> str:
        return f"{options.cipher}/{options.kind}:{options.session_bytes}B"

    def _execute_pending(self, pending, results) -> None:
        # Groups whose trace already lives in this process run locally; cold
        # groups are eligible for the pool.
        local = {opts: entries for opts, entries in pending.items()
                 if opts in self._functional}
        cold = {opts: entries for opts, entries in pending.items()
                if opts not in self._functional}
        computed: dict[ExperimentOptions, list[dict]] = {}
        with self._monitor(pending) as monitor:
            if cold and self.jobs > 1 and len(cold) > 1:
                parallel = self._run_groups_parallel(cold, monitor)
                if parallel is not None:
                    computed.update(parallel)
                    cold = {}
            for options, entries in {**local, **cold}.items():
                monitor.dispatch(self._group_label(options))
                computed[options] = self._run_group_records(
                    options, [entry[1].config for entry in entries]
                )
                monitor.complete(self._group_label(options))
        for options, entries in pending.items():
            records = computed[options]
            for (index, experiment, key), record in zip(entries, records):
                self.cache.put(key, record)
                result = self._result_from_record(
                    experiment, record, cached=False
                )
                self.stats.timing_runs += 1
                self.stats.instructions_simulated += result.stats.instructions
                self.stats.wall_time_timing += result.wall_time
                if self.metrics is not None:
                    self.metrics.histogram(
                        "runner.experiment.seconds",
                        {"cipher": result.cipher,
                         "config": result.config_name},
                    ).observe(result.wall_time)
                results[index] = result
                self._publish_result(result)
                if self.stats_hook is not None:
                    self.stats_hook(result)

    def _publish_result(self, result: RunResult) -> None:
        """One ledger event per experiment result, with the slot account.

        The flattened ``slots.*`` fractions feed the dashboard's
        stall-category bars without it ever deserializing a SimStats.
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
        for category, fraction in result.stats.stall_fractions().items():
            data[f"slots.{category}"] = round(fraction, 6)
        self.bus.publish("runner", "result", data)

    def _run_groups_parallel(self, pending, monitor: FleetMonitor):
        specs = [
            (options, [entry[1].config for entry in entries],
             self.stream, self.chunk_size, self.backend, self.timing_engine)
            for options, entries in pending.items()
        ]
        labels = [self._group_label(spec[0]) for spec in specs]
        try:
            with self._span("parallel-fanout", "timing",
                            {"groups": len(specs), "jobs": self.jobs}):
                with multiprocessing.Pool(min(self.jobs, len(specs))) as pool:
                    # apply_async (not map) so each group's completion is
                    # observed live by the fleet monitor: the callback runs
                    # on the pool's result thread the moment a worker
                    # finishes, keeping heartbeats/ETA accurate.
                    handles = []
                    for spec, label in zip(specs, labels):
                        monitor.dispatch(label)
                        handles.append(pool.apply_async(
                            _worker_run_group, (spec,),
                            callback=lambda _out, label=label:
                                monitor.complete(label),
                        ))
                    outputs = [handle.get() for handle in handles]
        except Exception as error:  # pool unavailable or worker died
            # Keep the dispatched groups accounted (the serial fallback
            # runs exactly those; its dispatch() calls are idempotent),
            # but restart their timers and the watchdog's progress clock
            # so the ledger matches the pool path's event sequence.
            monitor.requeue_all()
            warnings.warn(
                f"parallel runner unavailable ({error!r}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        # Workers ran the functional simulations out of process; fold the
        # wall time (and peak trace memory) they report back.
        self.stats.functional_runs += len(specs)
        self.stats.wall_time_functional += sum(
            output["functional_wall_time"] for output in outputs
        )
        for output in outputs:
            self.stats.note_trace_bytes(output.get("peak_trace_bytes", 0))
        return dict(zip(
            (spec[0] for spec in specs),
            (output["records"] for output in outputs),
        ))

    def _should_stream(self, options: ExperimentOptions) -> bool:
        """Streaming eligibility for one experiment group.

        Streaming is skipped when the trace is already materialized in
        this process (or sitting in the blob cache -- reusing it beats
        re-executing), when the caller asked for recorded values (the
        value-prediction study reads the trace directly), and for setup
        runs (tiny traces, separate harness).
        """
        if options.kind == "setup" or options.record_values:
            return False
        enabled = options.stream if options.stream is not None else self.stream
        if not enabled:
            return False
        if options in self._functional:
            return False
        blob_key = self._trace_blob_key(options)
        return blob_key is None or not self.cache.has_blob(blob_key)

    def _run_group_records(self, options, configs) -> list[dict]:
        if self._should_stream(options):
            return self._stream_group_records(options, configs)
        run = self.functional(options)
        warm = None if options.kind == "setup" else run.warm_ranges
        records = []
        for config in configs:
            start = time.perf_counter()
            with self._span(f"timing:{options.cipher}:{config.name}",
                            "timing",
                            {"cipher": options.cipher,
                             "config": config.name}) as span_args:
                stats = simulate(run.trace, config, warm,
                                 metrics=self.metrics,
                                 engine=self._resolved_timing_engine(options))
                span_args["cycles"] = stats.cycles
            elapsed = time.perf_counter() - start
            if self.metrics is not None:
                self.metrics.histogram(
                    "runner.timing.seconds",
                    {"cipher": options.cipher, "config": config.name},
                ).observe(elapsed)
            records.append({
                "version": RUNNER_VERSION,
                "cipher": options.cipher,
                "config": config.name,
                "instructions": run.instructions,
                "session_bytes": options.session_bytes,
                "stats": _stats_to_dict(stats),
                "wall_time": elapsed,
            })
        return records

    def kernel_stream(self, options, chunk_size: int | None = None):
        """A live single-pass kernel stream for one experiment's options.

        The streaming execution path and the trace bisector
        (``repro.tools.diff bisect``) both need "the trace this
        experiment would produce" without materializing it; this builds
        exactly the stream the runner itself feeds to its pipelines --
        same backend resolution, same decrypt pre-encryption, same chunk
        sizing (``chunk_size`` overrides the experiment's, then the
        runner's).  Setup traces are short and always materialized, so
        they have no streaming form.
        """
        if options.kind == "setup":
            raise ValueError(
                "setup runs have no streaming form; use "
                "functional(options).trace"
            )
        kernel = self._kernel(options)
        data = options.resolved_plaintext()
        if chunk_size is None:
            chunk_size = (options.chunk_size
                          if options.chunk_size is not None
                          else self.chunk_size)
        backend = self._resolved_backend(options)
        if options.kind == "decrypt":
            # The preliminary encryption only provides the input bytes; no
            # trace is recorded for it.
            payload = kernel.encrypt(
                data, options.iv, record_trace=False, backend=backend
            ).ciphertext
            return kernel.stream(payload, options.iv, decrypt=True,
                                 chunk_size=chunk_size, backend=backend)
        return kernel.stream(data, options.iv, chunk_size=chunk_size,
                             backend=backend)

    def _stream_group_records(self, options, configs) -> list[dict]:
        """One machine stream feeding one timing pipeline per config.

        The functional interpreter advances chunk by chunk and every
        pipeline consumes each chunk as it is produced, so peak trace
        memory is one chunk regardless of session length, and functional
        work is still done once per group (the same dedup as the batch
        path).  Produces records identical to :meth:`_run_group_records`.
        """
        stream = self.kernel_stream(options)
        engine = self._resolved_timing_engine(options)
        perf = time.perf_counter
        # Building a pipeline is timing work: it counts in the timing phase.
        pipelines = []
        timing_times = []
        for config in configs:
            t0 = perf()
            pipelines.append(make_pipeline(
                config, stream.source.static, stream.source.program,
                warm_ranges=stream.warm_ranges, engine=engine))
            timing_times.append(perf() - t0)
        # With the disk cache on, accumulate the compact columns so the
        # trace blob can be written through -- a later functional() call
        # (same process or another) then deserializes instead of
        # re-executing.  Bounded peak memory is the --no-cache (or
        # already-cached) regime; the write-through costs one compact
        # trace, never the full Trace object graph.
        blob_key = self._trace_blob_key(options)
        keep = blob_key is not None and self.cache.enabled
        seq_acc = array(SEQ_TYPECODE) if keep else None
        addrs_acc = array(ADDR_TYPECODE) if keep else None
        tracer = self.tracer
        functional_time = 0.0
        peak = 0
        chunks = 0
        span_start = tracer.now_us() if tracer is not None else 0.0
        generator = stream.source.chunks()
        while True:
            chunk_ts = tracer.now_us() if tracer is not None else 0.0
            t0 = perf()
            chunk = next(generator, None)
            functional_time += perf() - t0
            if chunk is None:
                break
            chunks += 1
            if keep:
                seq_acc.extend(chunk.seq)
                addrs_acc.extend(chunk.addrs)
            nbytes = chunk.nbytes
            if nbytes > peak:
                peak = nbytes
            for index, pipeline in enumerate(pipelines):
                t0 = perf()
                pipeline.feed(chunk)
                timing_times[index] += perf() - t0
            if tracer is not None:
                tracer.add_event({
                    "name": f"chunk:{options.cipher}", "cat": "stream",
                    "ph": "X", "ts": chunk_ts,
                    "dur": tracer.now_us() - chunk_ts,
                    "pid": tracer.pid, "tid": 0,
                    "args": {"index": chunks - 1, "entries": len(chunk),
                             "bytes": nbytes},
                })
        t0 = perf()
        fin = stream.finalize()
        functional_time += perf() - t0
        if keep:
            held = (seq_acc.itemsize * len(seq_acc)
                    + addrs_acc.itemsize * len(addrs_acc))
            if held > peak:
                peak = held
            self.cache.put_blob(blob_key, {
                "version": RUNNER_VERSION,
                "seq": seq_acc,
                "addrs": addrs_acc,
                "values": None,
                "instructions": fin.instructions,
                "ciphertext": fin.ciphertext,
                "session_bytes": fin.session_bytes,
                "warm_ranges": fin.warm_ranges,
            })

        self.stats.functional_runs += 1
        self.stats.wall_time_functional += functional_time
        self.stats.note_trace_bytes(peak)
        if self.metrics is not None:
            self.metrics.counter("runner.functional_runs").inc()
            self.metrics.histogram(
                "runner.functional.seconds", {"cipher": options.cipher}
            ).observe(functional_time)
            self.metrics.gauge("runner.peak_trace_bytes").set(
                self.stats.peak_trace_bytes
            )
        if tracer is not None:
            # The phases ran interleaved; report each with its measured
            # share so span names and totals match the batch path.
            tracer.add_event({
                "name": f"functional:{options.cipher}", "cat": "functional",
                "ph": "X", "ts": span_start, "dur": functional_time * 1e6,
                "pid": tracer.pid, "tid": 0,
                "args": {"cipher": options.cipher, "kind": options.kind,
                         "session_bytes": options.session_bytes,
                         "streamed": True, "chunks": chunks},
            })

        records = []
        for index, (config, pipeline) in enumerate(zip(configs, pipelines)):
            t0 = perf()
            stats = pipeline.finish()
            elapsed = timing_times[index] + (perf() - t0)
            if self.metrics is not None:
                record_sim_metrics(self.metrics, config, stats)
                self.metrics.histogram(
                    "runner.timing.seconds",
                    {"cipher": options.cipher, "config": config.name},
                ).observe(elapsed)
            if tracer is not None:
                tracer.add_event({
                    "name": f"timing:{options.cipher}:{config.name}",
                    "cat": "timing", "ph": "X",
                    "ts": span_start, "dur": elapsed * 1e6,
                    "pid": tracer.pid, "tid": 0,
                    "args": {"cipher": options.cipher,
                             "config": config.name,
                             "cycles": stats.cycles, "streamed": True},
                })
            records.append({
                "version": RUNNER_VERSION,
                "cipher": options.cipher,
                "config": config.name,
                "instructions": fin.instructions,
                "session_bytes": options.session_bytes,
                "stats": _stats_to_dict(stats),
                "wall_time": elapsed,
            })
        return records

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

    def simulate_trace(
        self,
        trace: Trace,
        config: MachineConfig,
        warm_ranges=None,
        *,
        key_parts=None,
    ) -> SimStats:
        """Timing-simulate an arbitrary trace, optionally disk-cached.

        ``key_parts`` must content-identify the trace (e.g. the component
        fingerprints of a multisession interleaving, or a program digest);
        without it the simulation runs uncached.
        """
        key = None
        if key_parts is not None:
            key = content_key({
                "record": "trace-sim",
                "version": RUNNER_VERSION,
                "parts": key_parts,
                "config": asdict(config),
                "warm": warm_ranges,
            })
            record = self.cache.get(key)
            if record is not None:
                try:
                    stats = _stats_from_dict(record["stats"])
                except (KeyError, TypeError, ValueError):
                    self.cache.errors += 1
                else:
                    self.stats.cache_hits += 1
                    return stats
            self.stats.cache_misses += 1
        start = time.perf_counter()
        self.stats.note_trace_bytes(getattr(trace, "nbytes", 0))
        with self._span(f"trace-sim:{config.name}", "timing",
                        {"config": config.name}):
            stats = simulate(trace, config, warm_ranges,
                             metrics=self.metrics,
                             engine=self.timing_engine)
        self.stats.timing_runs += 1
        self.stats.instructions_simulated += stats.instructions
        self.stats.wall_time_timing += time.perf_counter() - start
        if key is not None:
            self.cache.put(key, {
                "version": RUNNER_VERSION,
                "stats": _stats_to_dict(stats),
            })
        return stats

    def simulate_stream(
        self,
        source: TraceSource,
        configs,
        warm_ranges=None,
        *,
        key_parts=None,
        chunk_size: int | None = None,
    ) -> list[SimStats]:
        """Timing-simulate a single-pass trace source on several configs.

        The streaming twin of :meth:`simulate_trace`: one pipeline per
        config consumes each chunk as the source produces it, so a live
        :class:`~repro.sim.machine.StreamingTrace` is executed exactly
        once and never materialized.  Cache records are shared with
        :meth:`simulate_trace` (same ``trace-sim`` keys -- the results are
        bit-identical), keyed per config by ``key_parts``; when *every*
        config hits, the source is left untouched (the machine never
        runs).
        """
        configs = list(configs)
        stats_list: list[SimStats | None] = [None] * len(configs)
        keys: list[str | None] = [None] * len(configs)
        if key_parts is not None:
            for index, config in enumerate(configs):
                key = content_key({
                    "record": "trace-sim",
                    "version": RUNNER_VERSION,
                    "parts": key_parts,
                    "config": asdict(config),
                    "warm": warm_ranges,
                })
                keys[index] = key
                record = self.cache.get(key)
                if record is not None:
                    try:
                        stats_list[index] = _stats_from_dict(record["stats"])
                    except (KeyError, TypeError, ValueError):
                        self.cache.errors += 1
                if stats_list[index] is not None:
                    self.stats.cache_hits += 1
                else:
                    self.stats.cache_misses += 1
        missing = [i for i, stats in enumerate(stats_list) if stats is None]
        if not missing:
            return stats_list  # type: ignore[return-value]

        perf = time.perf_counter
        t0 = perf()
        pipelines = {
            index: make_pipeline(configs[index], source.static,
                                 source.program, warm_ranges=warm_ranges,
                                 engine=self.timing_engine)
            for index in missing
        }
        timing_time = perf() - t0
        functional_time = 0.0
        peak = 0
        with self._span("stream-sim", "timing",
                        {"configs": [configs[i].name for i in missing]}):
            generator = source.chunks(chunk_size)
            while True:
                t0 = perf()
                chunk = next(generator, None)
                functional_time += perf() - t0
                if chunk is None:
                    break
                if chunk.nbytes > peak:
                    peak = chunk.nbytes
                t0 = perf()
                for pipeline in pipelines.values():
                    pipeline.feed(chunk)
                timing_time += perf() - t0
        self.stats.wall_time_functional += functional_time
        self.stats.note_trace_bytes(peak)
        for index, pipeline in pipelines.items():
            t0 = perf()
            stats = pipeline.finish()
            timing_time += perf() - t0
            stats_list[index] = stats
            self.stats.timing_runs += 1
            self.stats.instructions_simulated += stats.instructions
            if self.metrics is not None:
                record_sim_metrics(self.metrics, configs[index], stats)
            if keys[index] is not None:
                self.cache.put(keys[index], {
                    "version": RUNNER_VERSION,
                    "stats": _stats_to_dict(stats),
                })
        self.stats.wall_time_timing += timing_time
        if self.metrics is not None:
            self.metrics.gauge("runner.peak_trace_bytes").set(
                self.stats.peak_trace_bytes
            )
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


@contextmanager
def _null_span(args: dict | None = None):
    """Stand-in for :meth:`repro.obs.Tracer.span` when tracing is off."""
    yield dict(args or {})


def _worker_run_group(spec):
    """Pool entry point: one functional run + its timing configs.

    Returns the records plus the worker's functional wall time and peak
    trace memory so the parent runner's accounting covers out-of-process
    work.
    """
    options, configs, stream, chunk_size, backend, timing_engine = spec
    worker = Runner(cache=ResultCache.disabled(), jobs=1,
                    stream=stream, chunk_size=chunk_size, backend=backend,
                    timing_engine=timing_engine)
    records = worker._run_group_records(options, configs)
    return {
        "records": records,
        "functional_wall_time": worker.stats.wall_time_functional,
        "peak_trace_bytes": worker.stats.peak_trace_bytes,
    }
