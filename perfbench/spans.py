"""Spans recorded around the calls the evaluation engine makes into each layer.

Nothing under ``src/`` is changed: :func:`instrument` patches, for the length
of a traced pass, the public entry points the engine reaches —
``EvaluationEngine.run``, ``make_mechanism(...).publish``,
``ATTACKS.create_parsed(...).run``, ``METRICS.create_parsed(...)(...)``,
``SchedulerBackend.map_groups`` and ``MobilityDataset.content_fingerprint`` —
and restores them afterwards.  Cache stores are watched per object
(:meth:`Tracer.watch_cache`), so a traced store keeps its class and code path
(a ``SqliteCellCache`` stays one, and work-queue workers still write into it).

Spans live in memory as plain dicts (name, start, end, parent, run) and are
written out as JSON once the benchmark ends.  A span's self time is its
duration minus the time its direct children cover; :func:`fold`
folds one pass's spans into the per-layer metric names of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: The mechanism families, attacks and metrics the per-layer metrics name.
PUBLISH_FAMILIES = (
    "promesse", "smoothing", "geo-ind", "wait4me", "downsampling", "pseudonyms", "identity",
)
ATTACK_NAMES = ("poi-retrieval", "reident", "tracking", "zone-census")
METRIC_NAMES = (
    "spatial-distortion", "area-coverage", "point-retention", "trip-length-error",
    "range-query", "swap-stats", "mixing-entropy",
)
RUNNER_IDS = ("e1", "e2", "e3", "e4", "e5", "e6", "e8")

_NO_SPAN = contextlib.nullcontext({})


class Tracer:
    """Records nested spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self.run = ""
        self._stack: List[int] = []
        #: id(PublicationResult) -> publication key, set by the publish wrapper
        #: and read by the attack wrapper (the engine attacks a publication
        #: right after publishing it, while the object is alive).
        self.publication_of: Dict[int, Tuple] = {}

    def span(self, name: str) -> Any:
        if not self.enabled:
            return _NO_SPAN
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "run": self.run,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(record["id"])
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def of_run(self, run: str) -> List[Dict[str, Any]]:
        return [span for span in self.spans if span["run"] == run]

    def watch_cache(self, cache: Any) -> Any:
        """Time one cache store's lookups and stores, keeping its class."""
        if not self.enabled:
            return cache
        get, put = cache.get, cache.put

        def traced_get(key: Tuple) -> Any:
            with self.span("cache.get") as record:
                row = get(key)
                record["hit"] = row is not None
                return row

        def traced_put(key: Tuple, row: Dict[str, Any]) -> None:
            with self.span("cache.put"):
                put(key, row)

        cache.get, cache.put = traced_get, traced_put
        get_serialized = getattr(cache, "get_serialized", None)
        if get_serialized is not None:
            # The work-queue coordinator gathers worker-written rows this way.
            cache.get_serialized = self._wrap("cache.get_serialized", get_serialized)
        return cache

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _params_key(params: Dict[str, Any]) -> str:
    return repr(sorted(params.items(), key=lambda item: item[0]))


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Patch the engine's layer entry points to record spans; undo on exit."""
    if not tracer.enabled:
        yield
        return
    from repro.api import registry
    from repro.core.trajectory import MobilityDataset
    from repro.experiments import backends, engine

    saved: List[Tuple[Any, str, bool, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        namespace = vars(owner)
        saved.append((owner, attr, attr in namespace, namespace.get(attr)))
        setattr(owner, attr, value)

    run = engine.EvaluationEngine.run

    def traced_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("engine.run") as record:
            rows = run(self, *args, **kwargs)
            record["cells"] = len(rows)
            return rows

    make_mechanism = engine.make_mechanism

    def traced_make_mechanism(spec: str, *args: Any, **kwargs: Any) -> Any:
        mechanism = make_mechanism(spec, *args, **kwargs)
        family = spec.split("|")[0].split(":")[0].strip().lower()
        if "|" in spec:
            resolved = spec  # a chain counts under its first stage's family
        else:
            name, params = registry.parse_spec(spec)
            for key, value in (kwargs.get("defaults") or {}).items():
                if key not in params and registry.MECHANISMS.declares(name, key):
                    params[key] = value
            resolved = name.lower() + _params_key(params)
        publish = mechanism.publish

        def traced_publish(dataset: Any) -> Any:
            with tracer.span("publish." + family) as record:
                result = publish(dataset)
                record["points_in"] = int(dataset.n_points)
                record["points_out"] = int(result.dataset.n_points)
                record["key"] = repr((resolved, len(dataset), int(dataset.n_points)))
            tracer.publication_of[id(result)] = record["key"]
            return result

        mechanism.publish = traced_publish
        return mechanism

    attacks_create = registry.ATTACKS.create_parsed

    def traced_attack(name: str, params: Dict[str, Any], **kwargs: Any) -> Any:
        attack_key = name + _params_key(params)
        attack = attacks_create(name, params, **kwargs)
        attack_run = attack.run

        def traced_attack_run(result: Any, context: Any = None) -> Any:
            with tracer.span("attack." + name) as record:
                record["key"] = repr((tracer.publication_of.get(id(result)), attack_key))
                return attack_run(result, context)

        attack.run = traced_attack_run
        return attack

    metrics_create = registry.METRICS.create_parsed

    def traced_metric(name: str, params: Dict[str, Any], **kwargs: Any) -> Any:
        return tracer._wrap("metric." + name, metrics_create(name, params, **kwargs))

    fingerprint = MobilityDataset.content_fingerprint

    def traced_fingerprint(self: Any) -> Any:
        with tracer.span("trajectory.fingerprint"):
            return fingerprint(self)

    patch(engine.EvaluationEngine, "run", traced_run)
    patch(engine, "make_mechanism", traced_make_mechanism)
    patch(registry.ATTACKS, "create_parsed", traced_attack)
    patch(registry.METRICS, "create_parsed", traced_metric)
    patch(MobilityDataset, "content_fingerprint", traced_fingerprint)
    for backend in (backends.SerialBackend, backends.WorkQueueBackend):
        patch(backend, "map_groups", tracer._wrap("backend.map_groups", backend.map_groups))
    try:
        yield
    finally:
        for owner, attr, existed, value in reversed(saved):
            if existed:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


# ---------------------------------------------------------------------------
# Folding spans into per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    position = {span["id"]: i for i, span in enumerate(spans)}
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = position.get(span["parent"])
        if parent is not None:
            child_time[parent] += span["end"] - span["start"]
    return [span["end"] - span["start"] - child for span, child in zip(spans, child_time)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fold(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """One pass's spans as per-layer metrics (absent layers read 0).

    Layer times (``publish.s``, ``attack.<name>_s``, ...) are total span
    durations; ``engine.self_s`` and ``trace.self_s`` are self times, the
    latter summed over every span (the numerator of ``trace.coverage``).
    """
    total: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    selfs = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    keys: Dict[str, set] = defaultdict(set)
    for span, self_time in zip(spans, selfs):
        name = span["name"]
        duration = span["end"] - span["start"]
        total[name] += duration
        count[name] += 1
        out["trace.self_s"] += self_time
        layer = name.split(".", 1)[0]
        if layer in ("publish", "attack", "metric"):
            out[layer + ".s"] += duration
            out[layer + ".calls"] += 1
            keys[layer].add(span.get("key"))
        if layer == "publish":
            out["publish.points_in"] += span.get("points_in", 0)
            out["publish.points_out"] += span.get("points_out", 0)
        if name == "engine.run":
            out["engine.self_s"] += self_time
            out["engine.cells"] += span.get("cells", 0)
        if name.startswith("cache.get"):
            out["cache.get_s"] += self_time
        if name == "cache.get":
            out["cache.hits"] += span.get("hit", False)
    for family in PUBLISH_FAMILIES:
        out[f"publish.{family}_s"] = total["publish." + family]
    for attack in ATTACK_NAMES:
        out[f"attack.{attack}_s"] = total["attack." + attack]
    for metric in METRIC_NAMES:
        out[f"metric.{metric}_s"] = total["metric." + metric]
    for runner in RUNNER_IDS:
        out[f"runner.{runner}_s"] = total["runner." + runner]
    out["engine.run_s"] = total["engine.run"]
    out["engine.publish_reuse"] = _ratio(len(keys["publish"]), out["publish.calls"])
    out["engine.attack_reuse"] = _ratio(len(keys["attack"]), out["attack.calls"])
    out["cache.gets"] = count["cache.get"]
    out["cache.puts"] = count["cache.put"]
    out["cache.put_s"] = total["cache.put"]
    out["cache.hit_ratio"] = _ratio(out["cache.hits"], out["cache.gets"])
    out["backend.map_groups_s"] = total["backend.map_groups"]
    out["trajectory.fingerprint_s"] = total["trajectory.fingerprint"]
    out["worlds.build_s"] = total["worlds.build"]
    out["store.write_s"] = total["store.write"]
    out["store.open_s"] = total["store.open"]
    return dict(out)
