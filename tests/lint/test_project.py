"""Cross-module passes: call graph, taint chains, stream labels, solver.

Each test assembles a miniature ``src/repro`` tree out of in-memory
:class:`SourceFile` objects and runs the whole-program passes of
:func:`lint_sources` over it (no per-file checkers), asserting the
exact (rule id, path, line) triples — and, for the taint rules, the
rendered call chain in the message.
"""

import textwrap

from repro.lint import SourceFile, lint_sources
from repro.lint.effects import analyze, effect_findings
from repro.lint.project import (
    MODULE_SCOPE,
    ProjectModel,
    module_name_for,
    solve,
)


def make_source(path, snippet):
    source = SourceFile(path, textwrap.dedent(snippet))
    assert source.parse_error is None
    return source


def run_passes(*path_snippets):
    sources = [make_source(path, text) for path, text in path_snippets]
    report = lint_sources(sources, checkers=())
    findings = report.findings
    triples = [(f.rule_id, f.path, f.line) for f in findings]
    return triples, findings, report.suppressed


class TestModuleNaming:
    def test_repro_anchored_paths(self):
        assert module_name_for("src/repro/utils/rng.py") == "repro.utils.rng"
        assert module_name_for("src/repro/runtime/__init__.py") == (
            "repro.runtime"
        )
        assert module_name_for("src/repro/cli.py") == "repro.cli"

    def test_out_of_tree_path_falls_back_to_stem(self):
        assert module_name_for("scratch/helper.py") == "helper"


class TestTransitiveWallclock:
    def test_helper_behind_helper_is_reported_with_chain(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.utils.hlp import outer

                def run():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return _inner()

                def _inner():
                    return time.time()
                """,
            ),
        )
        assert triples == [
            ("transitive-wallclock", "src/repro/simulator/eng.py", 3)
        ]
        [finding] = findings
        assert (
            "run -> repro.utils.hlp:outer -> _inner -> time.time "
            "(src/repro/utils/hlp.py:7)"
        ) in finding.message
        assert "perf_seconds" in finding.message

    def test_direct_call_is_left_to_the_per_file_rule(self):
        # A length-1 chain is sim-wallclock's domain, not this pass's.
        triples, _, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                import time

                def run():
                    return time.time()
                """,
            ),
        )
        assert triples == []

    def test_profiling_module_is_a_taint_boundary(self):
        # perf_seconds() is the sanctioned clock: calling through
        # repro.obs.profiling must never taint the caller.
        triples, _, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.obs.profiling import perf_seconds

                def run():
                    return perf_seconds()
                """,
            ),
            (
                "src/repro/obs/profiling.py",
                """\
                import time

                def perf_seconds():
                    return time.perf_counter()
                """,
            ),
        )
        assert triples == []

    def test_sink_pragma_stops_taint_at_the_source(self):
        triples, _, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.utils.hlp import outer

                def run():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return time.time()  # repro-lint: allow[sim-wallclock]
                """,
            ),
        )
        assert triples == []

    def test_anchor_pragma_suppresses_the_finding(self):
        triples, _, suppressed = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.utils.hlp import outer

                # repro-lint: allow[transitive-wallclock]
                def run():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return _inner()

                def _inner():
                    return time.time()
                """,
            ),
        )
        assert triples == []
        assert suppressed == 1

    def test_helpers_outside_entry_dirs_are_not_anchors(self):
        # The tainted chain exists, but its head lives in utils/ — only
        # simulator/experiments/core functions anchor findings.
        triples, _, _ = run_passes(
            (
                "src/repro/utils/wrap.py",
                """\
                from repro.utils.hlp import outer

                def convenience():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return _inner()

                def _inner():
                    return time.time()
                """,
            ),
        )
        assert triples == []


class TestTransitiveRng:
    def test_stdlib_random_behind_helper(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.noise import jitter

                def run_point():
                    return jitter()
                """,
            ),
            (
                "src/repro/utils/noise.py",
                """\
                import random

                def jitter():
                    return random.random()
                """,
            ),
        )
        assert triples == [
            ("transitive-rng", "src/repro/experiments/fig.py", 3)
        ]
        assert "random.random" in findings[0].message

    def test_rng_factory_module_is_a_taint_boundary(self):
        triples, _, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import spawn_rng

                def run_point():
                    return spawn_rng(7)
                """,
            ),
            (
                "src/repro/utils/rng.py",
                """\
                import numpy as np

                def spawn_rng(seed):
                    return np.random.default_rng(seed)
                """,
            ),
        )
        assert triples == []

    def test_seeded_numpy_constructors_are_not_sinks(self):
        triples, _, _ = run_passes(
            (
                "src/repro/core/scheme.py",
                """\
                from repro.utils.noise import fresh

                def form():
                    return fresh()
                """,
            ),
            (
                "src/repro/utils/noise.py",
                """\
                import numpy as np

                def fresh():
                    return np.random.default_rng(42)
                """,
            ),
        )
        assert triples == []


class TestCallGraphResolution:
    def test_reexport_through_package_init(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.utils import outer

                def run():
                    return outer()
                """,
            ),
            (
                "src/repro/utils/__init__.py",
                """\
                from repro.utils.hlp import outer
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def outer():
                    return time.monotonic()
                """,
            ),
        )
        assert triples == [
            ("transitive-wallclock", "src/repro/simulator/eng.py", 3)
        ]
        assert "time.monotonic" in findings[0].message

    def test_self_method_and_nested_def_edges(self):
        model = ProjectModel.build([
            make_source(
                "src/repro/simulator/eng.py",
                """\
                class Engine:
                    def run(self):
                        def step():
                            return 1
                        return self._tick()

                    def _tick(self):
                        return 0
                """,
            )
        ])
        run_node = model.functions["repro.simulator.eng:Engine.run"]
        targets = {edge.target for edge in run_node.edges if edge.internal}
        assert "repro.simulator.eng:Engine.run.step" in targets
        assert "repro.simulator.eng:Engine._tick" in targets

    def test_class_body_does_not_inherit_method_edges(self):
        # Methods are not reachable from <module>: importing a module
        # must never count as calling its classes' methods.
        model = ProjectModel.build([
            make_source(
                "src/repro/utils/thing.py",
                """\
                import time

                class Thing:
                    def now(self):
                        return time.time()
                """,
            )
        ])
        module_node = model.functions[f"repro.utils.thing:{MODULE_SCOPE}"]
        assert all(
            edge.target != "time.time" for edge in module_node.edges
        )


class TestStreamLabels:
    def test_duplicate_literal_label_is_reported_at_second_site(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def run_point(seed):
                    factory = RngFactory(seed)
                    a = factory.stream("noise")
                    b = factory.stream("noise")
                    return a, b
                """,
            ),
        )
        assert triples == [
            ("stream-label-collision", "src/repro/experiments/fig.py", 6)
        ]
        assert "line 5" in findings[0].message

    def test_distinct_labels_and_fstrings_are_clean(self):
        triples, _, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def run_point(seed, k):
                    factory = RngFactory(seed)
                    a = factory.stream("noise")
                    b = factory.stream("workload")
                    c = factory.stream(f"k{k}")
                    return a, b, c
                """,
            ),
        )
        assert triples == []

    def test_stream_and_fork_labels_are_separate_namespaces(self):
        triples, _, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def run_point(seed):
                    factory = RngFactory(seed)
                    a = factory.stream("faults")
                    b = factory.fork("faults")
                    return a, b
                """,
            ),
        )
        assert triples == []

    def test_non_literal_label_is_reported(self):
        triples, findings, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def run_point(seed, name):
                    return RngFactory(seed).stream(name)
                """,
            ),
        )
        assert triples == [
            ("stream-label-collision", "src/repro/experiments/fig.py", 4)
        ]
        assert "non-literal" in findings[0].message

    def test_same_label_in_different_functions_is_clean(self):
        # Scope is (function, receiver, method): two functions building
        # their own factories may reuse a label freely.
        triples, _, _ = run_passes(
            (
                "src/repro/experiments/fig.py",
                """\
                from repro.utils.rng import RngFactory

                def one(seed):
                    return RngFactory(seed).stream("noise")

                def two(seed):
                    return RngFactory(seed).stream("noise")
                """,
            ),
        )
        assert triples == []

    def test_rng_module_itself_is_exempt(self):
        triples, _, _ = run_passes(
            (
                "src/repro/utils/rng.py",
                """\
                class RngFactory:
                    def stream(self, label):
                        return label

                def helper(factory, name):
                    return factory.stream(name)
                """,
            ),
        )
        assert triples == []


def propagate(graph, local):
    """Set-union reachability over ``graph`` on the solver: each key
    ends up holding its own facts plus those of every key it reaches.
    Returns ``(facts, steps)``, ``steps`` being the keys run, in order."""
    facts = {key: set(local.get(key, ())) for key in graph}
    callers = {key: sorted(k for k in graph if key in graph[k])
               for key in graph}
    steps = []

    def step(key):
        steps.append(key)
        before = len(facts[key])
        for callee in graph[key]:
            facts[key] |= facts[callee]
        return callers[key] if len(facts[key]) != before else []

    solve(sorted(graph), step)
    return facts, steps


class TestSolver:
    def test_mutual_recursion_and_self_loop_converge(self):
        facts, steps = propagate(
            {"a": ["b"], "b": ["a", "c"], "c": ["c"], "d": ["a"]},
            {"c": {"io"}, "d": {"write"}},
        )
        assert facts == {"a": {"io"}, "b": {"io"}, "c": {"io"},
                         "d": {"io", "write"}}
        # The four seeds run once each; b grows from c and re-queues a,
        # a grows from b and re-queues b and d; then nothing changes.
        assert steps == ["a", "b", "c", "d", "a", "b", "d"]

    def test_a_waiting_key_is_queued_once_in_fifo_order(self):
        order = []

        def step(key):
            order.append(key)
            return {"a": ["c", "b", "c"], "b": ["c"]}.get(key, [])

        solve(["b", "a", "b"], step)
        # The duplicate seed is dropped; a's re-queues land behind the
        # waiting keys, and c, already waiting, is not queued twice.
        assert order == ["b", "a", "c", "b", "c"]


class TestChainsOnTheSolver:
    def test_equal_length_chains_tie_break_in_sorted_fifo_order(self):
        # run reaches time.time through _b (called and defined first)
        # and through _a; both chains have length 3.  The sinks seed
        # the queue sorted, so _a reaches run first and its chain wins.
        triples, findings, _ = run_passes((
            "src/repro/simulator/eng.py",
            """\
            import time

            def _b():
                return time.time()

            def _a():
                return time.time()

            def run():
                return _b() + _a()
            """,
        ))
        assert [t[0] for t in triples] == ["transitive-wallclock"]
        assert "run -> _a -> time.time" in findings[0].message

    def test_stop_module_does_not_propagate_a_helpers_taint(self):
        # perf_seconds itself calls a tainted helper outside the stop
        # module: the taint reaches perf_seconds but goes no further.
        triples, _, _ = run_passes(
            (
                "src/repro/simulator/eng.py",
                """\
                from repro.obs.profiling import perf_seconds

                def run():
                    return perf_seconds()
                """,
            ),
            (
                "src/repro/obs/profiling.py",
                """\
                from repro.utils.hlp import read_clock

                def perf_seconds():
                    return read_clock()
                """,
            ),
            (
                "src/repro/utils/hlp.py",
                """\
                import time

                def read_clock():
                    return time.time()
                """,
            ),
        )
        assert triples == []

    def test_effect_boundary_stops_summaries_and_reachability(self):
        # A fork task calls into the scheduler (a boundary module),
        # which calls a helper that writes a global.  Neither the
        # summary nor the task's reachable set crosses the boundary.
        analysis = analyze(ProjectModel.build([
            make_source(
                "src/repro/exp/driver.py",
                """\
                from repro.runtime.scheduler import map_tasks, settle

                def task(item):
                    return settle(item)

                def run():
                    return map_tasks(task, [1])
                """,
            ),
            make_source(
                "src/repro/runtime/scheduler.py",
                """\
                from repro.exp.state import bump

                def map_tasks(fn, items):
                    return [fn(item) for item in items]

                def settle(item):
                    return bump(item)
                """,
            ),
            make_source(
                "src/repro/exp/state.py",
                """\
                _SEEN = {}

                def bump(item):
                    _SEEN[item] = 1
                    return item
                """,
            ),
        ]))
        assert analysis.summaries["repro.exp.state:bump"].writes == {
            "repro.exp.state:_SEEN"
        }
        assert analysis.classify("repro.exp.driver:task") == "pure"
        assert [e.key for e in analysis.task_entries] == [
            "repro.exp.driver:task"
        ]
        assert effect_findings(analysis) == []
