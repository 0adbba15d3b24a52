"""Outside-in span recording around rankal's public names.

Every span is recorded by replacing a module attribute that rankal looks
up at call time (for example ``rankal.loop.fit``) with a wrapper, so the
package itself carries no instrumentation.  A span is a list
``[name, start, end, parent, note]``; ``parent`` indexes the enclosing span
(-1 at top level) and ``note`` holds the per-call extra a few spans need
(candidate-set size, pool fingerprint).

Spans stay in memory; ``Tracer.dump`` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
from time import perf_counter

LAYERS = (
    "data", "learner", "criteria", "weighting",
    "aggregation", "loop", "evaluation", "cli",
)


def _pool_key(args, kwargs, result):
    x = args[0] if args else kwargs["pool_features"]
    return hashlib.blake2b(memoryview(x.tobytes()), digest_size=8).hexdigest()


def _candidate_frac(args, kwargs, result):
    ranks = args[0] if args else kwargs["rank_lists"]
    return len(result) / ranks.shape[1]


def _targets(rankal):
    """(owner, attribute, span name, note) for every wrapped call site.

    A function is wrapped under each name its callers look it up by, so
    ``learner.fit`` covers the loop's margin and checkpoint fits
    (``rankal.loop.fit``) and the committee's member fits
    (``rankal.learner.fit``).
    """
    m = rankal
    return [
        (m.loop, "oracle_label", "data.oracle_label", None),
        (m.cli, "split_pool", "data.split_pool", None),
        (m.cli, "normalize_features", "data.normalize_features", None),
        (m.loop, "fit", "learner.fit", None),
        (m.learner, "fit", "learner.fit", None),
        (m.loop, "fit_committee", "learner.fit_committee", None),
        (m.learner.Model, "predict_proba", "learner.predict_proba", None),
        (m.learner, "kernel_matrix", "learner.kernel_matrix", None),
        (m.criteria, "kernel_matrix", "learner.kernel_matrix", None),
        (m.loop, "score_ted", "criteria.score_ted", _pool_key),
        (m.loop, "score_diversity", "criteria.score_diversity", None),
        (m.loop, "score_qbc", "criteria.score_qbc", None),
        (m.loop, "score_margin", "criteria.score_margin", None),
        (m.loop, "normalize_and_rank", "criteria.normalize_and_rank", None),
        (m.loop, "bvsb_weight", "weighting.bvsb_weight", None),
        (m.loop, "duplicate_weight", "weighting.duplicate_weight", None),
        (m.loop, "blend_weights", "weighting.blend_weights", None),
        (m.aggregation, "borda_aggregate", "aggregation.borda_aggregate", None),
        (m.aggregation, "bucklin_aggregate", "aggregation.bucklin_aggregate", None),
        (m.aggregation, "markov_aggregate", "aggregation.markov_aggregate", None),
        (m.aggregation, "truncate_candidates", "aggregation.truncate_candidates",
         _candidate_frac),
        (m.aggregation, "build_transition", "aggregation.build_transition", None),
        (m.aggregation, "stationary_distribution",
         "aggregation.stationary_distribution", None),
        (m.loop, "run_active_learning", "loop.run_active_learning", None),
        (m.cli, "run_active_learning", "loop.run_active_learning", None),
        (m.loop, "fused_step", "loop.fused_step", None),
        (m.loop, "serial_step", "loop.serial_step", None),
        (m.loop, "parallel_step", "loop.parallel_step", None),
        (m.loop, "initial_batch", "loop.initial_batch", None),
        (m.loop, "accuracy", "evaluation.accuracy", None),
        (m.loop, "f1", "evaluation.f1", None),
        (m.loop, "auc", "evaluation.auc", None),
        (m.cli, "win_tie_loss", "evaluation.win_tie_loss", None),
        (m.cli, "main", "cli.main", None),
    ]


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self, rankal):
        self.spans = []
        self._stack = []
        self._saved = []
        self._rankal = rankal

    def wrap(self, name, fn, note):
        """fn, recording one span named ``name`` per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return span

    def install(self):
        for owner, attr, name, note in _targets(self._rankal):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, note))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark(self):
        """Position in the span list; spans from here on belong to one unit."""
        return len(self.spans)

    def dump(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans, lo, hi):
    """Per-name and per-layer totals for spans[lo:hi] (one unit of work).

    Returns a dict with, per span name, ``calls``, ``s`` (summed duration)
    and ``self_s`` (duration minus the time its direct children cover);
    per layer, ``s`` (time with at least one span of the layer open) and
    ``self_s``; plus the notes each name recorded and, for every span, the
    names on its ancestor chain, for callers that split a name by context.
    """
    by_name = {}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        if parent >= lo:
            child_time[parent - lo] += end - start
    ancestors = []
    for i in range(lo, hi):
        name, start, end, parent, note = spans[i]
        dur = end - start
        chain = ancestors[parent - lo] + (spans[parent][0],) if parent >= lo else ()
        ancestors.append(chain)
        entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []})
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - child_time[i - lo]
        if note is not None:
            entry["notes"].append(note)
        layer = name.split(".", 1)[0]
        layer_self[layer] += dur - child_time[i - lo]
        if not any(a.split(".", 1)[0] == layer for a in chain):
            layer_s[layer] += dur
    return {"names": by_name, "layer_s": layer_s, "layer_self_s": layer_self,
            "ancestors": ancestors}
