"""Guard against reintroducing a switchable legacy twin.

``src/`` has one parameter layout (``Sequential`` always owns a
``FlatParameterStore``), one local-training loop (``TrainingPlan.run_cohort``,
whose one-member case is every single client's round) with one path through
it (every model it compiles stacks; the rest is refused), one
cross-process transport under one name (``dist``: no process pool, and no
``parallel`` alias an executor could be built under), one staleness knob
(declared once, on ``StalenessParams``), one FedAT (Theorem 5.1 is checked
on the one that runs, so neither a second FedAT loop on quadratics nor the
SGD momentum kept for it survives), one run loop (``FLSystem._run``,
with one cohort launch, one flush that trains what launches queue, and one
rejoin scheduler), one home for execution settings (``ExecConfig``, which
declares and checks each one; ``make_executor`` reads it, and a sweep's
grid holds none), one home per
method knob (the ``Params`` of the methods that read it), one description
of a run (``RunSpec``, which splits off execution settings, checks the rest
and keys the cache entry, the checkpoint and the sweep cell), one store of
finished runs (``RunSpec``'s, which the sweep and the figures read), one source of
a client round's state, its start row and task (batch-norm statistics are
weights and dropout draws from the round's own generator, so neither a
cohort-order replay nor a replica-safety flag with its serial fallback
survives), one way weights cross the simulated wire (``Codec.transmit``
of a whole stack; the string path is the wire format, not the run loop's),
one home of the latency formula (``sim/latency.py``, asked through the
population; clients carry data only), and one thread in the parent (the
dist scheduler's passes run on the caller's thread, so it has no loop
thread to wake or to hear back from). ``repro.nn`` is the library the
paper's four models need: no layer, option or method none of them builds
or calls. ``repro.compression`` is the paper's codec and the baselines'
raw float32: no related-work codec, and no stateful codec for the event
loop to work around.
The names below selected or served the other side of each pair before they
were deleted; a later change must not quietly bring one back.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

REMOVED = re.compile(
    r"DEFAULT_FLAT_STORE|DEFAULT_TRAINING_PLAN|use_flat_store|shared_broadcast"
    r"|fedasync_staleness|fedasync_a\b|train_client\b|staleness_factor"
    # The pool's private supervisor (PR 19): attempts, budget, deadlines and
    # the whole-pool respawn as closures, and its own copy of the chunk
    # split. Both transports run on repro.exec.supervision now.
    r"|_run_chunks_supervised|retry_or_fail|respawn_and_retry"
    r"|def _chunk\b|ParallelExecutor\._chunk|exec\.dist\.leases|dist/leases"
    # Per-method run loops, cohort launches and rejoin guards: every method
    # runs on FLSystem's queue, launch and schedule_join now.
    r"|train_departing_cohort|_start_tier_round|_wait_for_rejoin|schedule_relaunches"
    r"|schedule_arrival_launches|send_up_cohort|def send_up\b"
    # Execution settings are a type: no key blacklist, no backend registry,
    # no knob funnel; and two config fields nothing read.
    r"|EXECUTION_ONLY_KEYS|register_executor|_EXECUTOR_REGISTRY|_ensure_builtins|\*\*_ignored"
    r"|profiler_probe_rounds|extra: dict|config\.extra\b"
    # One cohort path: no flag picks a layer's or a plan's other path, and
    # the layers, schedules and helpers that kept that path covered are gone.
    r"|class GRU|nn\.gru|nn\.schedules|ClippedOptimizer|utils\.validation|MSELoss"
    r"|GlobalAveragePool|class Softmax\b|plan_aware|plan_stackable|\.stackable\b"
    # A method's knobs live on its Params: no list says which method tiers.
    r"|TIERED_METHODS"
    # A flush's uplink round trip is one Codec.transmit of the kept results;
    # and the arena stays with the plan whether or not the last cohort stacked.
    r"|encode_batch|decode_batch|roundtrip_batch|exec\.payloads|_stacked_before"
    # Start weights ride in the pool's chunk message: no shared-memory
    # segment, no fallback from it, and no knob for how workers start.
    r"|shared_memory|shm_fallback_reason|_attach_shared|_broadcast_header|\bstart_method\b"
    # Theorem 5.1 is checked on FedAT itself: no second FedAT loop on
    # quadratics, and no SGD momentum kept for it.
    r"|repro\.theory|run_fedat_on_quadratic|QuadraticProblem|SGD\([^)]*momentum|_velocity\b"
    # A client round is a function of its start row and task: no layer state
    # replayed in cohort order, and no model too stateful for the pool.
    r"|replica_safe|plan_cohort|plan_stream|begin_cohort|end_cohort|_ONE_STEP_PER_DRAW"
    r"|fallback_reason"
    # One cross-process transport, the socket executor: the process pool and
    # its pipe supervisor go.
    r"|_PoolWorker|_worker_main|_discard_pool"
    # A run is described, checked and keyed once, by RunSpec: no second key
    # helper or checkpoint key dict, no CLI flag table or config pre-check,
    # no sweep-side override assembly beside SweepSpec.run_spec, and not the
    # two cell listings nothing called.
    r"|_cache_key\b|RunCheckpointer\(checkpoint_dir, key\b|\b_PASSED\b|_run_kwargs\b"
    r"|make_fl_config\(args\.|_cell_fl_overrides\b|def (?:completed|pending)_cells\b"
    # Named streams come from rng() or, a cohort's, from one rngs() pass: no
    # namespaced sub-factory (a class per call), no integer-draw shortcut,
    # and no schedule rewind nothing called.
    r"|def child\(|_Namespaced\b|def integers\(|def reset\(self\)"
    # The paper's evaluation is one claims manifest: no generator per figure
    # or table, and no bench file per figure, table or ablation beside the
    # one bench that checks the manifest.
    r"|def fig\d+_|FIG2_METHODS|experiments\.tables|def table[12]\(|format_table[12]"
    r"|TABLE1_SCENARIOS|bench_(?:fig\d+|table\d|ablations)"
    # Who has arrived is the tier index's to know: no arrival pool copying
    # it. And no base class with one subclass: the executor front is
    # DistExecutor's, the lease table Dispatch's.
    r"|HeldBackPool|hold_back|arrival_pool|SupervisedExecutor|LeaseTable"
    # Who has dropped out is asked of an id array: no list twin beside it.
    r"|alive_clients\b"
    # Every latency question is the population's, asked once over its train
    # sizes: clients carry data only (no replica of them, no store of
    # replicas), a subset profiles through profile_latencies, and the
    # profiler keeps no option nothing set. No tier shuffle beside the
    # mis-profiling model, and no wrapper over dataclasses.replace.
    r"|VirtualReplicaStore|replica_store|def replica\b|profile_latencies_subset"
    r"|probe_rounds|noise_std|def mistier\b|def with_\b"
    # A finished run is stored once, by RunSpec under its key: no sweep cell
    # envelope with its own reader, writer and grid-wide staleness key, and
    # no second loader of that envelope for the figures.
    r"|read_cell_checkpoint|load_sweep_cells|_atomic_write|load_cell\b|spec_key"
    # One thread drives a dispatch: the scheduler's passes run on the
    # executor's thread, so no loop thread of its own and no channel to wake
    # it or to hear back from it.
    r"|WakeChannel|done_channel|repro-dist-scheduler"
    # One cross-process executor under one name: no "parallel" value to build
    # it under, and no executor that takes the name it was built with.
    r"|[\"']parallel[\"']|self\.name = self\.config\.executor"
    # How a sweep's cells run is the run's, passed at run time: the grid
    # carries no executor or worker count to hand each cell.
    r"|executor=self\.executor\b|num_workers=self\.num_workers\b|executor=args\.executor\b"
    # repro.nn builds the paper's four models and nothing else: no
    # sequence-output LSTM, no He initializer, no weight-list copy, and no
    # MLP builder (it is a test helper).
    r"|return_sequences|he_normal|\bbuild_mlp\b|clone_weights_from"
    # One first-hit rule: time_to_accuracy takes the series; no smoothing.
    r"|bytes_to_accuracy|smooth_series"
    # The paper's two codecs, polyline and raw float32: no related-work
    # codec, no stateful-codec path through the event loop, and no fault
    # family listing nothing called.
    r"|QuantizationCodec|TopKCodec|SubsampleCodec|\.deterministic\b|active_families"
    # Tiers come one way, TiFL's: every client probed once, the latencies
    # sorted and split. No sampled profile with its interpolated rest, no
    # tiering handed to a constructor, and no expected-latency prior that
    # only those two needed.
    r"|profile_sample|_build_tiering_sampled|expected_latencies|\btiering=|tiering: Tiering \|"
    # src/ keeps what a surface calls: not the accessors only tests read.
    r"|\btier_of\b|def tiers\(self\)|flat_weights_view|total_train_samples|classes_present"
    r"|\bcopy_of\b|\bunstable_ids\b|\bdropout_time\(|def megabytes\(|\bschedule\("
    r"|def client\(self"
)

#: Names that are only a removed path inside ``repro.nn``; elsewhere they
#: may mean something else (a lock's ``release()``, a codec's ``stride=``).
#: No activation layer the four models do not use, no strided or 'valid'
#: convolution, no weight-list, gradient-zeroing or optimizer-reset API, no
#: scratch branch in the reference optimizer step, no arena release and no
#: call shorthand or shape property on layers and parameters.
REMOVED_NN = re.compile(
    r"\b(?:Tanh|Sigmoid)\b|\b(?:padding|stride)[=:]|def reset_state\(|\b(?:get|set)_weights\("
    r"|(?<!store)\.zero_grad\(|_update\([^)]*scratch|def release\(self\)"
    r"|def __call__\(self, x\b|def shape\(self\)"
)


def test_removed_switches_stay_removed():
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if REMOVED.search(line)
        or (path.is_relative_to(SRC / "repro" / "nn") and REMOVED_NN.search(line))
    ]
    assert not hits, "removed twin-selecting names are back in src/:\n" + "\n".join(hits)


def test_pattern_does_not_flag_the_surviving_knob():
    assert REMOVED.search('TIERED_METHODS = ("fedat", "tifl")')
    assert not REMOVED.search("fedasync_alpha: float = 0.6")
    assert REMOVED.search("fedasync_a: float = 0.5")
    assert not REMOVED.search("def _chunk_results(chunk):")
    assert REMOVED.search("    def _chunk(tasks, n):")
    assert REMOVED.search("    def send_up(self, flat):")
    assert not REMOVED.search("    def send_down(self, flat, n_receivers=1):")
    assert REMOVED.search("    extra: dict = field(default_factory=dict)")
    assert not REMOVED.search("        extra = 0")
    assert REMOVED.search("    def _serial(*, model, clients, loss, optimizer, **_ignored):")
    assert REMOVED.search("class GRU(Layer):")
    assert REMOVED.search("from repro.nn.schedules import ClippedOptimizer")
    assert REMOVED.search("class Softmax(Layer):")
    assert not REMOVED.search("class SoftmaxCrossEntropy(Loss):")
    assert not REMOVED.search("from repro.nn.activations import softmax")
    assert REMOVED.search("    plan_aware = True")
    assert REMOVED.search("    def plan_stackable(self) -> bool:")
    assert REMOVED.search("        if not self.stackable:")
    assert REMOVED.search("    plan_stream = None")
    assert REMOVED.search("    plan_cohort = True")
    assert REMOVED.search("        if not model.replica_safe:")
    assert REMOVED.search("            layer.begin_cohort()")
    assert REMOVED.search("        self.fallback_reason: str | None = None")
    assert not REMOVED.search("    draws = True")
    assert not REMOVED.search("    def mask_rng(self, start_epoch: int) -> np.random.Generator:")
    assert REMOVED.search("from repro.exec.payloads import roundtrip_batch")
    assert not REMOVED.search("    def uplink_roundtrip(self, results):")
    assert REMOVED.search("        start_method: str | None = None,")
    assert not REMOVED.search('        forked = self._ctx.get_start_method() == "fork"')
    assert REMOVED.search("from repro.theory.convergence import QuadraticProblem")
    assert REMOVED.search("    res = run_fedat_on_quadratic(problem, rounds=200)")
    assert REMOVED.search("        return SGD(self.learning_rate, momentum=0.9)")
    assert REMOVED.search("        self._velocity: np.ndarray | None = None")
    assert not REMOVED.search("        return SGD(self.learning_rate)")
    assert not REMOVED.search("    def __init__(self, num_features, *, momentum=0.9):")
    assert not REMOVED.search("from repro.core.fedat import FedAT")
    assert REMOVED.search(
        '    key = _cache_key({"method": method, "dataset": dataset_name, **kwargs})'
    )
    assert not REMOVED.search('    path = _CACHE_DIR / f"{key}.json"')
    assert REMOVED.search(
        "        checkpointer = RunCheckpointer(checkpoint_dir, key, every=every)"
    )
    assert not REMOVED.search(
        "            checkpointer = RunCheckpointer(checkpoint_dir, self.key(), every=every)"
    )
    assert REMOVED.search("_PASSED = (")
    assert not REMOVED.search("        return TESTS_PASSED")
    assert REMOVED.search("    kwargs = _run_kwargs(args)")
    assert not REMOVED.search("        spec, execution = _run_spec(args, args.method)")
    assert REMOVED.search("        make_fl_config(args.method, args.scale, args.seed, **flat)")
    assert not REMOVED.search(
        "    return make_fl_config(self.method, self.scale, self.seed, **flat)"
    )
    assert REMOVED.search("            **self._cell_fl_overrides(cell),")
    assert not REMOVED.search("            run = self.spec.run_spec(cell)")
    assert REMOVED.search("    def pending_cells(self) -> list[SweepCell]:")
    assert not REMOVED.search('            "cells_done": len(self.spec.cells()) - missing,')
    assert REMOVED.search('    def child(self, name: str) -> "SeedSequenceFactory":')
    assert REMOVED.search("        class _Namespaced(SeedSequenceFactory):")
    assert not REMOVED.search(
        "    def rngs(self, names: Sequence[str]) -> list[np.random.Generator]:"
    )
    assert REMOVED.search(
        "    def integers(self, name: str, n: int, high: int = 2**31 - 1) -> np.ndarray:"
    )
    assert not REMOVED.search('    rng = SeedSequenceFactory(seed).rng("population/sizes")')
    assert not REMOVED.search("    return rng.integers(lo, hi + 1, size=num_clients)")
    assert REMOVED.search("    def reset(self) -> None:")
    assert not REMOVED.search("    def reset_state(self) -> None:")
    assert not REMOVED.search("    def advance_to(self, epoch: int) -> None:")
    assert REMOVED_NN.search("    def reset_state(self) -> None:")
    assert REMOVED.search('def fig5_precision_tradeoff(scale: str = "bench", seed: int = 0):')
    assert REMOVED.search("from repro.experiments.tables import format_table1, table1")
    assert not REMOVED.search("def write_scenario_figures(path, out_dir) -> list[Path]:")
    assert not REMOVED.search("            + format_table(headers, rows)")
    assert REMOVED.search("bench_fig2_convergence.py")
    assert REMOVED.search("bench_ablations.py")
    assert not REMOVED.search("bench_claims.py")
    assert REMOVED.search("    def alive_clients(self, client_ids, now: float) -> list[int]:")
    assert not REMOVED.search("        out = self.failures.alive_array(client_ids, t)")
    assert REMOVED.search("class VirtualReplicaStore:")
    assert not REMOVED.search("class _BoundClients:")
    assert REMOVED.search("    def replica_store(self) -> VirtualReplicaStore:")
    assert not REMOVED.search("        self._data_cache = _LRU(cache_size)")
    assert REMOVED.search('    def replica(self) -> "SimClient":')
    assert not REMOVED.search("    def replicas_alive(self) -> int:")
    assert REMOVED.search(
        "        sampled = self.population.profile_latencies_subset(profiler, ids, rng)"
    )
    assert not REMOVED.search(
        "        sampled = self.population.profile_latencies(profiler, rng, client_ids=ids)"
    )
    assert REMOVED.search("        probe_rounds: int = 1,")
    assert REMOVED.search("    payload = read_cell_checkpoint(path, self._spec_key)")
    assert not REMOVED.search("            if run.load(self.out_dir) is not None:")
    assert REMOVED.search("    cells = load_sweep_cells(directory)")
    assert not REMOVED.search('    rows = SweepRunner(spec, directory).summarize()["rows"]')
    assert REMOVED.search('            self._atomic_write(self.out_dir / "summary.json", summary)')
    assert not REMOVED.search('            save_json(self.out_dir / "summary.json", summary)')
    assert REMOVED.search("    def load_cell(self, cell: SweepCell) -> RunHistory | None:")
    assert not REMOVED.search("        return RunHistory.from_dict(load_json(self.path(store)))")
    assert REMOVED.search('            "spec_key": self._spec_key,')
    assert not REMOVED.search('            "key": self.spec.key(),')
    assert not REMOVED.search("        self.epochs = epochs")
    assert REMOVED.search("        noise_std: float = 0.0,")
    assert not REMOVED.search("        misprofile_fraction: float = 0.0,")
    assert REMOVED.search('    def mistier(self, fraction: float, rng) -> "Tiering":')
    assert REMOVED.search("    def tier_of(self, client_id: int) -> int:")
    assert not REMOVED.search("        self._tier_of: np.ndarray | None = None")
    assert REMOVED.search('    def with_(self, **kwargs) -> "FLConfig":')
    assert not REMOVED.search("    def with_defaults(self) -> dict:")
    assert REMOVED.search("        self._wake = WakeChannel()")
    assert not REMOVED.search("    def test_idle_scheduler_wakes_for_heartbeats_only(self, dataset):")
    assert REMOVED.search("        channel = self._scheduler.done_channel")
    assert not REMOVED.search("            fired = self._pump(0)")
    assert REMOVED.search('            target=self._run, name="repro-dist-scheduler", daemon=True')
    assert not REMOVED.search('                name="repro-dist-worker",')
    assert REMOVED.search('EXECUTORS = ("serial", "parallel", "dist")')
    assert not REMOVED.search('EXECUTORS = ("serial", "dist")')
    assert REMOVED.search("        self.name = self.config.executor")
    assert not REMOVED.search("        self.config = ExecConfig(executor=self.name, **settings)")
    assert REMOVED.search("            executor=self.executor,")
    assert REMOVED.search("            num_workers=self.num_workers,")
    assert REMOVED.search("                executor=args.executor,")
    assert not REMOVED.search("        self.num_workers = self.config.num_workers")
    assert not REMOVED.search(
        '        execution = {"executor": args.executor, "num_workers": args.num_workers}'
    )
    assert REMOVED_NN.search("class Tanh(Layer):")
    assert REMOVED_NN.search('__all__ = ["ReLU", "Tanh", "Sigmoid", "sigmoid", "softmax"]')
    assert not REMOVED_NN.search("        self._out = sigmoid(x, out=out, work=work)")
    assert REMOVED.search("        return_sequences: bool = False,")
    assert not REMOVED.search("        return hs[-1]")
    assert REMOVED_NN.search('        padding: str = "same",')
    assert REMOVED_NN.search('    Conv2D(c, filters[0], 3, padding="same", rng=rng, name="conv1"),')
    assert not REMOVED_NN.search("        self.pad = (self.kh - 1) // 2")
    assert REMOVED_NN.search("        stride: int = 1,")
    assert REMOVED_NN.search("    cols, (oh, ow) = im2col(x, 3, 3, stride=1, pad=1)")
    assert not REMOVED_NN.search("        strides = (sn, sh, sw, sh, sw, sc)")
    assert REMOVED.search("def he_normal(rng: np.random.Generator, shape, fan_in: int):")
    assert not REMOVED.search("def glorot_uniform(rng, shape, fan_in, fan_out):")
    assert REMOVED.search("from repro.nn.zoo import build_logistic, build_mlp")
    assert not REMOVED.search("from repro.nn.zoo import build_logistic")
    assert REMOVED_NN.search("    def get_weights(self) -> list[np.ndarray]:")
    assert REMOVED_NN.search("        m.set_weights(w)")
    assert REMOVED.search("        b.clone_weights_from(a)")
    assert not REMOVED_NN.search("    def set_flat_weights(self, flat: np.ndarray) -> None:")
    assert REMOVED_NN.search("    model.zero_grad()")
    assert REMOVED_NN.search("        p.zero_grad()")
    assert not REMOVED_NN.search("        store.zero_grad()")
    assert REMOVED_NN.search(
        "        self._update(store.data[:t], store.grad[:t], scratch=scratch)"
    )
    assert REMOVED_NN.search("    def _update(self, data, grad, scratch=None) -> None:")
    assert not REMOVED_NN.search("    def apply(self, data, grad, state, t, scratch) -> None:")
    assert REMOVED_NN.search("    def release(self) -> None:")
    assert not REMOVED_NN.search("    def release_caches(self) -> None:")
    assert REMOVED_NN.search(
        "    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:"
    )
    assert not REMOVED_NN.search("    def __call__(self, params: list[Parameter]) -> None:")
    assert REMOVED_NN.search("    def shape(self) -> tuple[int, ...]:")
    assert not REMOVED_NN.search("    def size(self) -> int:")
    assert not REMOVED.search("    def release(self) -> None:")
    assert not REMOVED.search("    def shape(self) -> tuple[int, ...]:")
    assert not REMOVED.search("        codec = Codec(stride=2)")
    assert REMOVED.search("def bytes_to_accuracy(history: RunHistory, target: float):")
    assert REMOVED.search("def smooth_series(values: np.ndarray, window: int = 5):")
    assert not REMOVED.search("def time_to_accuracy(history, target, series=RunHistory.times):")
    assert REMOVED.search("        QuantizationCodec(8), TopKCodec(0.1), SubsampleCodec(0.25),")
    assert not REMOVED.search("    for codec in (PolylineCodec(3), PolylineCodec(4)):")
    assert REMOVED.search("        if not self.codec.deterministic:")
    assert not REMOVED.search("        # deterministic substream, so composition never perturbs")
    assert REMOVED.search("    def active_families(self) -> tuple[str, ...]:")
    assert not REMOVED.search("    def chunk_faults(self, dispatch, chunk, attempt):")
    assert REMOVED.search("    profile_sample: int | None = None")
    assert not REMOVED.search("    misprofile_fraction: float = 0.0")
    assert REMOVED.search("    def _build_tiering_sampled(self, profiler, k: int, split: bool):")
    assert not REMOVED.search("    def build_tiering(self, *, split: bool = True):")
    assert REMOVED.search(
        "            prior = self.population.expected_latencies(self.config.local_epochs)"
    )
    assert not REMOVED.search("        latencies = self.population.profile_latencies(")
    assert REMOVED.search("        tiering: Tiering | None = None,")
    assert REMOVED.search("    system = FedAT(dataset, builder, config, tiering=tiers)")
    assert not REMOVED.search("        self.tiering = self.build_tiering()")
    assert not REMOVED.search("        tiering = self.build_tiering(split=not arrivals)")
    assert REMOVED.search("    def tiers(self) -> list[np.ndarray]:")
    assert not REMOVED.search("    def sizes(self) -> list[int]:")
    assert REMOVED.search("    def flat_weights_view(self) -> np.ndarray:")
    assert not REMOVED.search("    def get_flat_weights(self) -> np.ndarray:")
    assert REMOVED.search("    def total_train_samples(self) -> int:")
    assert not REMOVED.search("    def client_sizes(self) -> np.ndarray:")
    assert REMOVED.search("    def classes_present(self) -> np.ndarray:")
    assert not REMOVED.search("    classes = sorted_unique(labels)")
    assert REMOVED.search("    def copy_of(self, client_id: int) -> np.ndarray:")
    assert not REMOVED.search("            old = self._copies.get(client_id, self.initial_flat)")
    assert REMOVED.search("    def unstable_ids(self) -> list[int]:")
    assert not REMOVED.search("        self._unstable_ids = np.asarray(ids, dtype=np.int64)")
    assert REMOVED.search("    def dropout_time(self, client_id: int) -> float | None:")
    assert not REMOVED.search("        t = self._dropout_time.get(client_id)")
    assert REMOVED.search("    def megabytes(self) -> float:")
    assert not REMOVED.search(
        '                "megabytes": float(history.total_bytes()[-1]) / 1e6,'
    )
    assert REMOVED.search("    def schedule(self, delay: float, payload: Any) -> Event:")
    assert not REMOVED.search("            queue.schedule_at(at, payload)")
    assert not REMOVED.search(
        "    def schedule_join(self, queue, payload, client_ids=None, *, at=None):"
    )
    assert REMOVED.search("    def client(self, client_id: int) -> SimClient:")
    assert not REMOVED.search("    def client_data(self, client_id: int) -> ClientData:")


#: A delay model's bands and part assignment, a compute model's constants.
LATENCY_FIELDS = re.compile(r"\.(?:bands|assignment|per_sample)\b|\bcompute\.base\b")


def test_one_home_of_the_latency_formula():
    """Only ``sim/latency.py`` reads the parts of a latency model: every
    draw, expectation and profile is its formula, asked through the
    population, so no second vectorised copy of it lives beside it."""
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != "repro/sim/latency.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if LATENCY_FIELDS.search(line)
    ]
    assert not hits, "a latency model is read outside sim/latency.py:\n" + "\n".join(hits)
    assert LATENCY_FIELDS.search(
        "        bands = np.asarray(latency_model.delays.bands, dtype=float)"
    )
    assert LATENCY_FIELDS.search("        lo = bands[delays.assignment, 0]")
    assert LATENCY_FIELDS.search("        duration = compute.base + compute.per_sample * sizes")
    assert not LATENCY_FIELDS.search("        part = self.delay_model.part_of(client_id)")
    assert not LATENCY_FIELDS.search("        assignment = np.searchsorted(boundaries, expected)")
    assert not LATENCY_FIELDS.search("            assert res.weights.base is None")


def test_one_lease_state_machine():
    """The second supervisor's module stays deleted, and the things it used
    to duplicate each have one home under ``exec/``."""
    exec_dir = SRC / "repro" / "exec"
    assert not (exec_dir / "dist" / "leases.py").exists()
    sources = {p: p.read_text() for p in sorted(exec_dir.rglob("*.py"))}
    # The alias module is a name and nothing else: one transport.
    assert not re.search(r"^\s*(def|class) ", sources[exec_dir / "parallel.py"], re.M)

    def homes(pattern):
        return [p.name for p, text in sources.items() for _ in re.finditer(pattern, text)]

    assert homes(r"ExecutorFaultError\(\n") == ["executor.py"]
    assert homes(r"warnings\.warn\(") == ["executor.py"]  # degrade
    assert homes(r"np\.linspace\(") == ["supervision.py"]  # the chunk splitter
    assert homes(r"min_dispatch = ") == ["executor.py"]
    assert homes(r"= 1 \+ \w*retr\w+") == ["supervision.py"]  # the attempt budget
    assert homes(r"chunk_checksum\(results\) !=") == ["supervision.py"]
    # Each execution setting is declared and checked once, on ExecConfig.
    setting = r"(?:num_workers|chunk_timeout|chunk_retries|heartbeat_\w+|worker_grace)"
    assert homes(rf"\b{setting}: [\w |]+ = ") == ["base.py"] * 6
    assert homes(rf"raise ValueError\(\s*f?\"{setting}\b") == ["base.py"] * 6


def test_one_reader_of_execution_settings():
    """``FLSystem`` hands ``config.exec`` whole to ``make_executor``; nothing
    outside ``exec/`` reads an execution field or builds an executor."""
    outside = {
        str(path.relative_to(SRC / "repro")): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC / "repro").parts[0] != "exec"
    }
    assert [p for p, text in outside.items() for _ in re.finditer(r"make_executor\(", text)] == [
        "core/base.py"
    ]
    assert not [p for p, text in outside.items() if re.search(r"(?<!repro)\.exec\.\w", text)]


def test_the_run_loop_never_spells_a_message():
    """``core/`` and ``baselines/`` send weights through ``Codec.transmit``
    only: no ``.encode(`` or ``.decode(`` call on a codec (a string's
    ``.encode("utf-8")`` is not one), and ``send_down`` and
    ``uplink_roundtrip`` each make one ``transmit`` call."""
    dirs = (SRC / "repro" / "core", SRC / "repro" / "baselines")
    call = re.compile(r"\.(?:en|de)code\((?!\s*[\"'])")
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for d in dirs
        for path in sorted(d.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert not hits, "the run loop calls the string path:\n" + "\n".join(hits)
    assert call.search("payload = self.codec.encode(flat)")
    assert call.search("            res.weights = codec.decode(")
    assert not call.search('digest = hashlib.sha256(name.encode("utf-8")).digest()')
    import inspect

    from repro.core.base import FLSystem

    for method in (FLSystem.send_down, FLSystem.uplink_roundtrip):
        assert inspect.getsource(method).count(".transmit(") == 1, method.__name__


def test_one_polyline_validation():
    """``polyline.py`` rounds, validates and zigzags in one helper: its
    finite and range errors are raised there and nowhere else, and both the
    string encoder and ``polyline_transmit`` go through it."""
    import ast

    tree = ast.parse((SRC / "repro" / "compression" / "polyline.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def raised(node, needle):
        return [n for n in ast.walk(node) if isinstance(n, ast.Raise) and needle in ast.unparse(n)]

    for needle in ("requires finite", "too large for precision"):
        homes = [name for name, node in functions.items() if raised(node, needle)]
        assert homes == ["_scaled_zigzag"], needle
    for name in ("polyline_encode", "polyline_transmit"):
        assert "_scaled_zigzag(" in ast.unparse(functions[name]), name


def test_one_claims_manifest():
    """The paper's tables, figures and ablations are claims in one manifest,
    checked by one bench: no module or bench file per table or figure."""
    assert not (SRC / "repro" / "experiments" / "tables.py").exists()
    benches = sorted(p.name for p in (SRC.parent / "benchmarks").glob("*.py"))
    assert not [name for name in benches if REMOVED.search(name)]
    assert "bench_claims.py" in benches


def test_one_fedat():
    """The cross-tier mix runs in one place, ``TieredServer``: no second
    tier loop beside ``FedAT`` calls the weighting rules, and the package
    that held one stays deleted."""
    assert not (SRC / "repro" / "theory").exists()
    calls = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in re.findall(r"\b(cross_tier_weights|uniform_tier_weights)\(", path.read_text())
        if not re.search(rf"^def {name}\(", path.read_text(), re.M)
    ]
    assert calls == [
        "repro/core/server.py: uniform_tier_weights",
        "repro/core/server.py: cross_tier_weights",
    ]


def test_one_sigmoid():
    """The LSTM's gates run one sigmoid function; its planned form is the
    same body given buffers, not a second implementation beside it."""
    defs = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in re.findall(r"^\s*def (\w*sigmoid\w*)\(", path.read_text(), re.M)
    ]
    assert defs == ["repro/nn/activations.py: sigmoid"]


def test_every_zoo_layer_has_plan_kernels():
    """A model the experiments build stacks its cohorts, the reddit model
    included: its training plan compiles, and a plan refuses any layer
    without planned kernels."""
    import numpy as np

    from repro.nn import zoo
    from repro.nn.losses import SoftmaxCrossEntropy
    from repro.nn.plan import TrainingPlan

    rng = np.random.default_rng(0)
    built = {
        "build_cnn": zoo.build_cnn((8, 8, 3), 4, rng=rng, filters=(2, 2, 2), dense_units=4),
        "build_femnist_cnn": zoo.build_femnist_cnn(
            (8, 8, 1), 4, rng=rng, filters=(2, 2), dense_units=4
        ),
        "build_logistic": zoo.build_logistic(6, 3, rng=rng),
        "build_lstm_classifier": zoo.build_lstm_classifier(
            8, 4, rng=rng, embed_dim=4, hidden_dim=4
        ),
    }
    assert sorted(built) == sorted(zoo.__all__)
    for model in built.values():
        TrainingPlan(model, SoftmaxCrossEntropy())


_LOADED_BY_NAME = "a method ALGORITHMS loads by its 'module:Class' string"
_TYPE_ONLY = "a type: the values it describes are built and read elsewhere"

#: Exports no code outside their own module uses, each kept for a reason.
EXPORTS_WITHOUT_CALLERS = {
    "ProximalTerm": "the oracle for the proximal hook of Sequential.train_on_batch",
    "ScratchArena": "the plan's arena type",
    "FaultSpec": "the type parse_faults returns",
    "FedAvg": _LOADED_BY_NAME,
    "FedProx": _LOADED_BY_NAME,
    "TiFL": _LOADED_BY_NAME,
    "FedAsync": _LOADED_BY_NAME,
    "ASOFed": _LOADED_BY_NAME,
    "Payload": _TYPE_ONLY,
    "DatasetSpec": _TYPE_ONLY,
    "ScenarioEvent": _TYPE_ONLY,
    "ScalePreset": _TYPE_ONLY,
    "SweepCell": _TYPE_ONLY,
    "RobustnessReport": _TYPE_ONLY,
    "MaterializedPopulation": _TYPE_ONLY,
    "SCENARIO_PRESETS": "the preset table parse_scenario resolves a name in",
    "run_cached": "the memoized run_experiment the README documents",
    "clear_cache": "the one way to empty the run store and its in-process memo",
}


def test_every_export_has_a_caller():
    """Every name a ``repro`` package exports (its ``__all__``) is used, as
    a name or an attribute (found with ``ast``, not by string search), by
    code under ``src/``, ``scripts/``, ``benchmarks/`` or ``examples/``
    outside the module that defines it, or is on the allowlist above. A
    public name nothing runs is dead code kept alive by its own tests."""
    import ast
    import importlib
    import types

    used = {}
    for folder in ("src", "scripts", "benchmarks", "examples"):
        for path in sorted((SRC.parent / folder).rglob("*.py")):
            used[path] = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Name, ast.Attribute))
            }
    packages = sorted(".".join(p.parent.relative_to(SRC).parts) for p in SRC.rglob("__init__.py"))
    assert "repro.scenario" in packages and "repro.exec.dist" in packages
    uncalled = set()
    for package in packages:
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if isinstance(value, (type, types.FunctionType)):
                home = SRC / (value.__module__.replace(".", "/") + ".py")
            else:  # a constant: the module that assigns it
                assigns = re.compile(rf"^{name}\b[^=\n]*= ", re.M)
                home = next(p for p in used if assigns.search(p.read_text()))
            if not any(name in names for path, names in used.items() if path != home):
                uncalled.add(name)
    assert sorted(uncalled) == sorted(EXPORTS_WITHOUT_CALLERS), (
        "an export with no caller is dead code: delete it, or allowlist it with a reason"
    )


def test_one_recurrent_kernel_per_class():
    """Each class in ``recurrent.py`` has at most one planned forward and
    one planned backward: one client is the G = 1 case of the stacked
    kernels, not an unstacked twin beside them."""
    import ast

    tree = ast.parse((SRC / "repro" / "nn" / "recurrent.py").read_text())
    kernels = {
        node.name: sorted(
            f.name
            for f in node.body
            if isinstance(f, ast.FunctionDef) and re.match(r"_(forward|backward)_", f.name)
        )
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    assert kernels == {"Embedding": [], "LSTM": ["_backward_planned", "_forward_planned"]}


def test_one_training_loop():
    """Local training has one batch-step function, and every way into it —
    a whole cohort, one client's ``run_epochs``, ``SimClient.local_train``
    — goes through ``TrainingPlan.run_cohort``: the serial executor (the
    core of the pool and dist workers too) hands over the whole cohort
    rather than training task by task."""
    import inspect

    from repro.nn.plan import TrainingPlan
    from repro.sim.client import SimClient

    plan_source = (SRC / "repro" / "nn" / "plan.py").read_text()
    # One function runs a training forward, the loss and the backward chain,
    # and one place calls it.
    assert plan_source.count("fwd(x, True, ") == 1
    assert plan_source.count("self._loss_bwd()") == 1
    assert "def _train_batch(" in plan_source
    assert plan_source.count("self._train_batch(") == 1
    for fn in (TrainingPlan.run_epochs, SimClient.local_train):
        assert ".run_cohort(" in inspect.getsource(fn), fn.__qualname__
    serial = (SRC / "repro" / "exec" / "serial.py").read_text()
    assert "local_train" not in serial
    assert serial.count(".run_cohort(") == 1


def test_one_event_loop():
    """Every method runs on ``FLSystem._run``: one queue, one pop, one
    launch and one rejoin lookup across ``core/`` and ``baselines/``, and
    FedAsync and ASO-Fed differ only in their update rule."""
    from repro.baselines import ASOFed, FedAsync
    from repro.core.base import AsyncFLSystem

    dirs = (SRC / "repro" / "core", SRC / "repro" / "baselines")
    sources = {p: p.read_text() for d in dirs for p in sorted(d.glob("*.py"))}

    def homes(needle):
        return [p.name for p, text in sources.items() for _ in range(text.count(needle))]

    assert homes("EventQueue()") == ["base.py"]
    assert homes("queue.pop()") == ["base.py"]
    assert homes("def _run(") == ["base.py"]
    assert homes("next_join_after(") == ["base.py"]
    assert homes("def launch(") == ["base.py"]
    assert homes("def flush(") == ["base.py"]
    assert homes("def client_lambda(") == ["base.py"]  # λ is read off Params
    for step in (".sample_latency(", ".train_cohort(", ".uplink_roundtrip("):
        assert homes(step) == ["base.py"], step
    assert issubclass(FedAsync, AsyncFLSystem) and issubclass(ASOFed, AsyncFLSystem)
    for name in ("fedasync.py", "asofed.py"):
        text = sources[SRC / "repro" / "baselines" / name]
        # Their one dataclass is the knobs they read.
        assert text.count("@dataclass") == text.count("class Params(") == 1, name
        assert "def handle(" not in text, name


#: The knobs only some methods read: each lives on the Params of the
#: methods that read it, never on FLConfig.
METHOD_KNOBS = (
    "lam", "num_tiers", "misprofile_fraction", "retier_interval",
    "retier_ewma", "server_weighting", "staleness", "fedasync_alpha", "tifl_interval",
    "tifl_credit_slack",
)


def test_method_knobs_stay_off_the_config():
    """``FLConfig`` declares none of the method knobs, and nothing in
    ``src/`` reads one off a config (``config.lam``, ``cfg.tifl_interval``):
    a method reads ``self.params``."""
    from dataclasses import fields

    from repro.core.config import FLConfig

    assert not {f.name for f in fields(FLConfig)} & set(METHOD_KNOBS)
    read = re.compile(r"\b(?:config|cfg)\.(?:" + "|".join(METHOD_KNOBS) + r")\b")
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if read.search(line)
    ]
    assert not hits, "a method knob is read off a config:\n" + "\n".join(hits)
    assert read.search("        every = self.config.retier_interval")
    assert not read.search("        every = self.params.retier_interval")


def test_every_method_declares_its_knobs():
    """Each method in the table has a frozen ``Params`` dataclass whose
    fields all have defaults, so ``Cls.Params()`` is its paper setting, and
    together they declare exactly the method knobs."""
    from dataclasses import MISSING, fields, is_dataclass

    from repro.experiments.config import ALGORITHMS

    declared = set()
    for name, cls in ALGORITHMS.items():
        params = cls.Params
        assert is_dataclass(params) and params.__dataclass_params__.frozen, name
        for f in fields(params):
            assert f.default is not MISSING or f.default_factory is not MISSING, (name, f.name)
            declared.add(f.name)
        cls.Params()  # the defaults pass the checks
    assert declared == set(METHOD_KNOBS)
