"""Self-tests of the benchmark: generator, output checks, tracer, contract.

Run from the repository root::

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import addcubic.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def run_cli(workload: str, config: Path, out_dir: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return addcubic.cli.main([workloads.WORKLOADS[workload], "--config",
                                  str(config), "--out-dir", str(out_dir)])


class TempDirTest(unittest.TestCase):
    def make_dir(self) -> Path:
        path = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, path, ignore_errors=True)
        return path


class GeneratorTest(TempDirTest):
    def test_same_seed_gives_same_bytes(self):
        first = workloads.write_configs(SEED, self.make_dir())
        second = workloads.write_configs(SEED, self.make_dir())
        other = workloads.write_configs(SEED + 1, self.make_dir())
        self.assertEqual(sorted(first), sorted(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            self.assertEqual(first[name].read_bytes(), second[name].read_bytes())
            self.assertNotEqual(first[name].read_bytes(),
                                other[name].read_bytes())

    def test_item_counts(self):
        expected = {
            "lemmas_exact": 2 * len(workloads.LEMMA_DIMS) * workloads.LEMMA_PAIRS,
            "recover_float": workloads.RECOVER_POINTS,
            "sweep_exact": 6 * workloads.SWEEP_POINTS,
        }
        for name, count in expected.items():
            doc = workloads.build_config(name, SEED)
            self.assertEqual(workloads.items(name, doc), count)


class CheckerTest(TempDirTest):
    @classmethod
    def setUpClass(cls):
        cls.root = Path(tempfile.mkdtemp())
        cls.configs = workloads.write_configs(SEED, cls.root / "configs")
        cls.docs = {name: json.loads(path.read_text())
                    for name, path in cls.configs.items()}
        cls.outputs = {}
        for name, path in cls.configs.items():
            out_dir = cls.root / name
            assert run_cli(name, path, out_dir) == 0
            cls.outputs[name] = out_dir

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.root, ignore_errors=True)

    def tampered(self, workload: str, edit) -> Path:
        out_dir = self.make_dir() / workload
        shutil.copytree(self.outputs[workload], out_dir)
        edit(out_dir)
        return out_dir

    def problems(self, workload: str, out_dir: Path) -> list[str]:
        return workloads.check(workload, self.docs[workload], out_dir)

    @staticmethod
    def edit_json(path: Path, change) -> None:
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def test_untouched_outputs_pass(self):
        for name, out_dir in self.outputs.items():
            self.assertEqual(self.problems(name, out_dir), [], name)

    def test_flipped_within_bound_is_rejected(self):
        def flip(doc):
            doc["points"][5]["within_bound"] = False
        out_dir = self.tampered("recover_float", lambda d: self.edit_json(
            d / "recover.json", flip))
        self.assertTrue(self.problems("recover_float", out_dir))

    def test_altered_csv_byte_is_rejected(self):
        def alter(out_dir):
            path = out_dir / "recover.csv"
            data = bytearray(path.read_bytes())
            index = data.index(b"\n2,") + 4  # inside the x of row 2
            data[index] = ord("7") if data[index] != ord("7") else ord("3")
            path.write_bytes(bytes(data))
        out_dir = self.tampered("recover_float", alter)
        self.assertTrue(self.problems("recover_float", out_dir))
        self.assertNotEqual(run.output_digest(out_dir),
                            run.output_digest(self.outputs["recover_float"]))

    def test_loose_error_bound_is_rejected(self):
        def loosen(doc):
            doc["summary"]["max_error"] = 1.0
        out_dir = self.tampered("recover_float", lambda d: self.edit_json(
            d / "recover.json", loosen))
        self.assertTrue(self.problems("recover_float", out_dir))

    def test_sweep_divergent_cell_reported_ok_is_rejected(self):
        def hide(doc):
            cell = next(c for c in doc["cells"] if c["p"] == "3")
            cell["status"] = "ok"
        out_dir = self.tampered("sweep_exact", lambda d: self.edit_json(
            d / "sweep.json", hide))
        self.assertTrue(self.problems("sweep_exact", out_dir))

    def test_nonzero_linear_residual_is_rejected(self):
        def spoil(doc):
            doc["models"][0]["additive"]["nonzero_count"] = 1
        out_dir = self.tampered("lemmas_exact", lambda d: self.edit_json(
            d / "lemmas.json", spoil))
        self.assertTrue(self.problems("lemmas_exact", out_dir))

    def test_extra_output_file_is_rejected(self):
        out_dir = self.tampered(
            "lemmas_exact", lambda d: (d / "extra.json").write_text("{}"))
        self.assertTrue(self.problems("lemmas_exact", out_dir))


class TracerTest(TempDirTest):
    def test_uninstall_restores_every_original(self):
        from addcubic import harness, models, noise, scalars
        watched = [(models.FuncModel, "evaluate_coords"), (noise, "sample"),
                   (harness, "recover"), (harness, "write_json"),
                   (models.Point, "__post_init__"), (scalars, "format_number")]
        before = {key: vars(key[0])[key[1]] for key in watched}
        runners = dict(addcubic.cli._RUNNERS)
        active = tracer.Tracer().install()
        patched = list(active._patches)
        for key in watched:
            self.assertIsNot(vars(key[0])[key[1]], before[key])
        active.uninstall()
        for key in watched:
            self.assertIs(vars(key[0])[key[1]], before[key])
        for owner, attr, original in patched:
            current = owner[attr] if isinstance(owner, dict) \
                else vars(owner)[attr]
            self.assertIs(current, original)
        self.assertEqual(addcubic.cli._RUNNERS, runners)

    def test_traced_run_is_transparent_and_counts_repeat(self):
        config = workloads.write_configs(SEED, self.make_dir())["sweep_exact"]
        plain = self.make_dir() / "plain"
        self.assertEqual(run_cli("sweep_exact", config, plain), 0)
        counts = []
        for _ in range(2):
            out_dir = self.make_dir() / "traced"
            active = tracer.Tracer().install()
            try:
                self.assertEqual(run_cli("sweep_exact", config, out_dir), 0)
            finally:
                active.uninstall()
            self.assertEqual(run.output_digest(out_dir),
                             run.output_digest(plain))
            layers = active.layer_metrics()
            counts.append({name: layers[name] for name in run.WORK_COUNTS})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["direct_method.iterate_steps"], 0)
        self.assertGreater(counts[0]["harness.bytes_written"], 0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_reported_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        self.assertLessEqual(set(names), set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        layer_names = list(tracer.Tracer().layer_metrics()) + [
            "cli.offcpu_frac", "trace.overhead_frac"]
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: run.layer_unit(name) for name in layer_names})

    def test_tail_leaves_ten_samples_above(self):
        samples = [float(i) for i in range(1, 41)]
        value, percentile = run.tail(samples)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertEqual(percentile, 75.0)
        self.assertEqual(run.tail([1.0, 2.0]), (2.0, 100.0))

    def test_run_time_is_the_90th_percentile(self):
        samples = [float(i) for i in range(1, 102)]
        self.assertEqual(run.run_time(samples), 91.0)
        self.assertEqual(run.run_time([3.0]), 3.0)


if __name__ == "__main__":
    unittest.main()
