"""Tests of the benchmark itself: generator, oracles and tracer.

    python3 -m unittest discover -s perfbench/tests

Run from the root of a checkout; the library is imported from ./src.
"""

import json
import os
import random
import shutil
import signal
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
os.chdir(ROOT)

import hodgepath as hp  # noqa: E402
import hodgepath.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

signal.signal(signal.SIGALRM, run._on_alarm)

# cheap ops (well under a second each) that still cross every layer
CHEAP = {"model_sweep": ("model:cp3", "model:s2xs2", "model:s3vs3"),
         "path_lifts": ("lift:b4", "mapping_path:b4"),
         "filtered_pages": ("mhd:cp2:check", "mhd:cp2:pi_star"),
         "cli_fixtures": ("cli:check fixtures/ms2_free.json",
                          "cli:minimal-model fixtures/s2.json --max-degree 6",
                          "cli:minimal-model:cache-miss", "cli:minimal-model:cache-hit",
                          "cli:mhd-check fixtures/p1toy.json --max-degree 4",
                          "cli:malformed:bad_expression.json")}


class BenchTestCase(unittest.TestCase):
    def setUp(self):
        self.work = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-test-")

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def ops(self, workload, seed=1):
        return workloads.generate(workload, hp, seed, self.work, run.run_cli)

    def cheap_ops(self, workload, seed=1):
        # keeps the generated order, so the cache hit still follows its miss
        return [op for op in self.ops(workload, seed) if op.op_id in CHEAP[workload]]

    def digests(self, ops, tr=None):
        """Run one pass, traced by `tr` if given, then check it untraced."""
        if tr is not None:
            tr.install()
        try:
            outcomes = run.run_pass(ops, run.Reference(), tr)
        finally:
            if tr is not None:
                tr.uninstall()
        failures, first = [], {}
        run.check_pass(ops, outcomes, first, failures)
        self.assertEqual(failures, [])
        return first


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        outcome = run.Outcome("op", 1.0)
        end_to_end = [*run.time_metrics([[outcome]], lambda o: o.seconds),
                      "peak_rss_mb", "setup_s"]
        self.assertEqual(sorted(m["name"] for m in bench["end_to_end"]), sorted(end_to_end))
        empty = {"per_name": {}, "data": {}, "layer_self": {}, "mm_cohomology_calls": 0,
                 "mm_certify_s": 0.0, "build_total_s": 0.0, "scalars": {}}
        per_layer = {**tracer.per_layer_metrics(empty), "trace.wall_s": (0.0, "s"),
                     "trace.overhead_s": (0.0, "s"), "trace.spans": (0, "count")}
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {k: unit for k, (_, unit) in per_layer.items()})


class GeneratorTest(BenchTestCase):
    def test_same_seed_same_inputs_and_outputs(self):
        for workload in workloads.WORKLOADS:
            a, b = self.ops(workload, 7), self.ops(workload, 7)
            self.assertEqual([op.op_id for op in a], [op.op_id for op in b])
        self.assertEqual(self.digests(self.cheap_ops("model_sweep", 7)),
                         self.digests(self.cheap_ops("model_sweep", 7)))

    def test_seed_changes_inputs(self):
        orders = {tuple(op.op_id for op in self.ops("filtered_pages", s)) for s in range(4)}
        self.assertGreater(len(orders), 1)
        basis, products, _ = workloads.MODEL_SHAPES["s2xs2"]
        tables = {repr(workloads.random_basis_change(basis, products, random.Random(s)))
                  for s in range(4)}
        self.assertEqual(len(tables), 4)


class OracleTest(BenchTestCase):
    def first_result(self, workload, op_id):
        op = next(op for op in self.ops(workload) if op.op_id == op_id)
        return op, op.run()

    def test_rejects_wrong_q_dims(self):
        op, (model, groups) = self.first_result("model_sweep", "model:s2xs2")
        op.verify((model, groups))
        groups["dims"][3] += 1
        with self.assertRaises(workloads.OracleError):
            op.verify((model, groups))

    def test_rejects_wrong_page(self):
        op, page = self.first_result("filtered_pages", "rpath:b4:page")
        op.verify(page)
        page["0,0"] += 1
        with self.assertRaises(workloads.OracleError):
            op.verify(page)

    def test_rejects_changed_cli_output(self):
        op, res = self.first_result("cli_fixtures", "cli:cohomology fixtures/s2.json")
        op.verify(res)
        for bad in (workloads.CliResult(res.rc, res.stdout.replace("1", "2", 1)),
                    workloads.CliResult(1, res.stdout)):
            with self.assertRaises(workloads.OracleError):
                op.verify(bad)

    def test_later_pass_must_reproduce_first_digest(self):
        op, page = self.first_result("filtered_pages", "rpath:b4:page")
        outcome = run.Outcome(op.op_id, 0.0, page)
        self.assertIsNone(run.check(op, outcome))
        digest = outcome.digest
        page["0,0"] += 1
        why = run.check(op, run.Outcome(op.op_id, 0.0, page), first_digest=digest)
        self.assertIn("differs from the first pass", why)

    def test_deadline_bounds_every_probe(self):
        self.ops("cli_fixtures")          # writes the documents
        for probe in workloads.defect_probes(self.work, run.run_cli):
            outcome = run.run_op(probe)
            self.assertLess(outcome.seconds, probe.deadline_s + 1.0, probe.op_id)
            if outcome.error is not None and "deadline" in outcome.error:
                self.assertIn("deadline", run.check(probe, outcome))


def _snapshot():
    return [(owner, name, id(value))
            for owner, name, value in tracer._bindings(tracer._package_modules())]


class TracerTest(BenchTestCase):
    def test_install_rebinds_everywhere_and_uninstall_restores(self):
        before = _snapshot()
        cohomology = hp.homology.cohomology
        coords = vars(hp.algebra.SubCdga)["coords"]
        add = vars(hp.scalars.Scalar)["__add__"]
        tr = tracer.Tracer()
        tr.install()
        try:
            # bound by value in several modules, all of which must see the wrapper
            for mod in (hp, hp.homology, hp.sullivan, hp.cli):
                self.assertIsNot(mod.cohomology, cohomology, mod.__name__)
            self.assertIsNot(vars(hp.algebra.SubCdga)["coords"], coords)
            scalar = vars(hp.scalars.Scalar)
            self.assertIsNot(scalar["__add__"], add)
            self.assertIs(scalar["__radd__"], scalar["__add__"])
        finally:
            tr.uninstall()
        self.assertEqual(_snapshot(), before)
        self.assertIs(hp.sullivan.cohomology, cohomology)

    def test_traced_outputs_match_untraced(self):
        for workload in ("model_sweep", "cli_fixtures"):
            ops = self.cheap_ops(workload)
            self.assertEqual(self.digests(ops, tracer.Tracer()), self.digests(ops))

    def layer_counts(self, workload):
        tr = tracer.Tracer()
        self.digests(self.cheap_ops(workload), tr)
        metrics = tracer.per_layer_metrics(tr.aggregate())
        return {k: v for k, (v, unit) in metrics.items() if unit != "s"}

    def test_counts_repeat_exactly(self):
        for workload in workloads.WORKLOADS:
            first = self.layer_counts(workload)
            self.assertEqual(self.layer_counts(workload), first, workload)
            self.assertGreater(first["scalars.mul.calls"], 0, workload)

    def test_layer_split(self):
        model = self.layer_counts("model_sweep")
        self.assertGreater(model["homology.cohomology.calls"], 0)
        self.assertEqual(model["algebra.SubCdga.coords.calls"], 0)
        self.assertEqual(model["filtered.FilteredComplex.coords.calls"], 0)
        paths = self.layer_counts("path_lifts")
        self.assertGreater(paths["algebra.SubCdga.coords.calls"], 0)
        self.assertEqual(paths["homology.cohomology.calls"], 0)
        cli = self.layer_counts("cli_fixtures")
        self.assertEqual((cli["cache.lookup.misses"], cli["cache.lookup.hits"]), (1, 1))

    def test_self_time_excludes_children(self):
        tr = tracer.Tracer()
        self.digests(self.cheap_ops("model_sweep"), tr)
        per_name = tr.aggregate()["per_name"]
        mm = per_name["sullivan.minimal_model"]
        self.assertLess(mm["self_s"], mm["total_s"])
        self.assertLessEqual(per_name["homology.cohomology"]["total_s"], mm["total_s"])


if __name__ == "__main__":
    unittest.main()
