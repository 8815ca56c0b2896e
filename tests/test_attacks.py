import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fedmeter import attacks as atk
from fedmeter import autodiff as ad
from fedmeter.attacks import AttackSpec
from fedmeter import models as md
from fedmeter.models import (LstmClassifier, TrainConfig, focal_loss, input_gradient,
                             make_model, predict_proba)
from fedmeter.seeding import rng_for
from training import train_epochs


def toy_data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([rng.uniform(0.0, 0.08, size=(half, 24)),
                   rng.uniform(0.92, 1.0, size=(half, 24))])
    y = np.concatenate([np.zeros(half), np.ones(half)])
    return x, y


@pytest.fixture(scope="module")
def trained():
    x, y = toy_data()
    model = LstmClassifier(seed=3)
    train_epochs(model, x, y, TrainConfig(epochs=60), seed=3)
    return model, x, y


def weight_digest(model) -> str:
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(model.params[name].tobytes())
    return h.hexdigest()


class TestAttackSpec:
    def test_defaults(self):
        spec = AttackSpec()
        assert spec.family == "none" and spec.pgd_iters == 10
        assert spec.epsilon == 0.5 and not spec.project_linf

    @pytest.mark.parametrize("kwargs", [
        {"family": "bim"},
        {"epsilon": -0.1},
        {"pgd_iters": 0},
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AttackSpec(**kwargs)


class TestFgsm:
    def test_zero_epsilon_is_identity(self, trained):
        model, x, y = trained
        x_adv = atk.fgsm(model, x, y, 0.0)
        assert np.array_equal(x_adv, x)

    def test_linf_bound_and_saturation(self, trained):
        model, x, y = trained
        eps = 0.3
        x_adv = atk.fgsm(model, x, y, eps)
        diff = np.abs(x_adv - x)
        assert diff.max() <= eps * (1 + 1e-12)
        grad = np.sign(atk.input_gradient(model, x, y))
        nz = grad != 0
        np.testing.assert_allclose(diff[nz], eps, rtol=1e-12)

    def test_small_epsilon_raises_loss_on_most_samples(self, trained):
        model, x, y = trained
        x_adv = atk.fgsm(model, x, y, 0.01)
        raised = 0
        for i in range(len(x)):
            clean = focal_loss(model.forward(x[i:i + 1])[0], y[i:i + 1])[0]
            adv = focal_loss(model.forward(x_adv[i:i + 1])[0], y[i:i + 1])[0]
            raised += adv >= clean
        assert raised >= 0.8 * len(x)

    def test_model_untouched(self, trained):
        model, x, y = trained
        before = weight_digest(model)
        atk.fgsm(model, x, y, 0.5)
        assert weight_digest(model) == before

    def test_loss_monotone_in_epsilon(self, trained):
        model, x, y = trained
        eps_grid = [0.0, 0.1, 0.2, 0.4]
        losses = []
        for eps in eps_grid:
            x_adv = atk.fgsm(model, x, y, eps)
            losses.append(focal_loss(model.forward(x_adv)[0], y)[0])
        rho = stats.spearmanr(eps_grid, losses).statistic
        assert rho > 0.9


class TestPgd:
    def test_single_step_equals_fgsm_bitwise(self, trained):
        model, x, y = trained
        a = atk.pgd(model, x, y, 0.25, iters=1, project=False)
        b = atk.fgsm(model, x, y, 0.25)
        assert np.array_equal(a, b)

    def test_linf_bound_grows_with_iters(self, trained):
        model, x, y = trained
        eps, iters = 0.2, 5
        x_adv = atk.pgd(model, x, y, eps, iters=iters)
        assert np.abs(x_adv - x).max() <= iters * eps * (1 + 1e-12)

    def test_projection_confines_iterates(self, trained):
        model, x, y = trained
        x_adv = atk.pgd(model, x, y, 0.2, iters=10, project=True)
        assert np.abs(x_adv - x).max() <= 0.2 * (1 + 1e-12)
        free = atk.pgd(model, x, y, 0.2, iters=10)
        assert np.abs(free - x).max() > 0.2 * (1 + 1e-12)

    def test_flips_at_least_as_many_predictions_as_fgsm(self, trained):
        model, x, y = trained
        eps = 0.5
        pred_clean = predict_proba(model, x) >= 0.5
        flips_fgsm = np.sum((predict_proba(model, atk.fgsm(model, x, y, eps)) >= 0.5)
                            != pred_clean)
        flips_pgd = np.sum((predict_proba(model, atk.pgd(model, x, y, eps, 10)) >= 0.5)
                           != pred_clean)
        assert flips_pgd >= flips_fgsm

    def test_model_untouched(self, trained):
        model, x, y = trained
        before = weight_digest(model)
        atk.pgd(model, x, y, 0.5, iters=3)
        assert weight_digest(model) == before

    def test_iters_validation(self, trained):
        model, x, y = trained
        with pytest.raises(ValueError):
            atk.pgd(model, x, y, 0.1, iters=0)

    @pytest.mark.parametrize("rows,labels", [(10, 20), (130, 100)])
    def test_label_count_must_match_before_any_block_runs(self, monkeypatch, rows, labels):
        model = make_model("lstm", seed=0)
        x = np.random.default_rng(1).uniform(size=(rows, 24))
        y = np.zeros(labels)
        calls = []
        monkeypatch.setattr(atk, "input_gradient", lambda *args: calls.append(args))
        message = f"pgd: {rows} input rows but {labels} labels"
        for call in (lambda: atk.pgd(model, x, y, 0.1, 2),
                     lambda: atk.fgsm(model, x, y, 0.1),
                     lambda: atk.poison_batch(model, x, y, AttackSpec(family="pgd"),
                                              rng_for(0, "poison"))):
            with pytest.raises(ad.ShapeError, match=message):
                call()
        assert calls == []


def whole_batch_iterates(model, x, y, epsilon, iters):
    """Oracle: projected PGD with every step on all rows in one call."""
    x_adv, out = x.copy(), []
    for _ in range(iters):
        x_adv = x_adv + epsilon * np.sign(input_gradient(model, x_adv, y))
        x_adv = np.clip(x_adv, x - epsilon, x + epsilon)
        out.append(x_adv)
    return out


@pytest.fixture(scope="module")
def untrained(request):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=(304, 24))
    y = (rng.uniform(size=304) < 0.3).astype(np.float64)
    return make_model(request.param, seed=2), x, y


class TestRowBlockedPgd:
    """Row blocks leave every PGD and FGSM result bit-identical."""

    # the Transformer's 304 rows take over 5 s, the LSTM's under 2 s
    @pytest.mark.parametrize("untrained,n", [
        *(("lstm", n) for n in (1, 64, 65, 96, 130, 304)),
        *(("transformer", n) for n in (1, 64, 65, 96, 130)),
        pytest.param("transformer", 304, marks=pytest.mark.slow)], indirect=["untrained"])
    def test_equals_whole_batch_iteration(self, untrained, n):
        model, x, y = untrained
        x, y = x[:n], y[:n]
        # one 0.1 step reaches the 0.1 ball's surface, so the first iterate
        # is FGSM; the ball stops a second step in the same direction, so
        # projection acts
        step1, step2 = whole_batch_iterates(model, x, y, 0.1, 2)
        assert np.array_equal(atk.fgsm(model, x, y, 0.1), step1)
        assert np.array_equal(atk.pgd(model, x, y, 0.1, 2, project=True), step2)
        assert not np.array_equal(atk.pgd(model, x, y, 0.1, 2), step2)
        assert np.abs(step2 - x).max() == pytest.approx(0.1)

    def test_no_call_sees_more_than_one_block(self, monkeypatch):
        # rows per block on 1, 2 and 3 workers: no more than ROW_BLOCK // 16
        # workers share the blocks, as an 8-row cap would split a lone row
        # off 9, 17 or 25 rows
        caps_by_model = {"lstm": {1: 64, 2: 32, 3: 16}, "transformer": {1: 32, 2: 16, 3: 16}}
        for name, caps_by_workers in caps_by_model.items():
            with monkeypatch.context() as patch:
                self.check_blocks(patch, make_model(name, seed=2), caps_by_workers)

    @staticmethod
    def check_blocks(monkeypatch, model, caps_by_workers):
        x = np.random.default_rng(12).uniform(0.0, 1.0, size=(304, 24))
        y = np.zeros(304)
        rows, caps, live, peak = [], [], {}, {}
        lock = threading.Lock()
        grad_fn, forward, blocks_fn = atk.input_gradient, type(model).forward, md.row_blocks

        def tracked(kind, n, call):
            # rows inside calls of this kind on all threads at once
            with lock:
                rows.append(n)
                live[kind] = live.get(kind, 0) + n
                peak[kind] = max(peak.get(kind, 0), live[kind])
            try:
                return call()
            finally:
                with lock:
                    live[kind] -= n

        def spy_gradient(m, xb, yb, *args):
            return tracked("gradient", len(xb), lambda: grad_fn(m, xb, yb, *args))

        def spy_forward(self, xb, want=None):
            return tracked("forward", xb.shape[0], lambda: forward(self, xb, want))

        def spy_blocks(n, cap):
            caps.append(cap)
            return blocks_fn(n, cap)

        monkeypatch.setattr(atk, "input_gradient", spy_gradient)
        monkeypatch.setattr(type(model), "forward", spy_forward)
        monkeypatch.setattr(md, "row_blocks", spy_blocks)
        for workers in (1, 2, 3):
            force_block_workers(monkeypatch, workers)
            for call in (lambda: atk.pgd(model, x[:130], y[:130], 0.1, 2),
                         lambda: predict_proba(model, x)):
                rows.clear()
                caps.clear()
                peak.clear()
                call()
                assert caps == [caps_by_workers[workers]]
                assert rows and max(rows) <= caps[0]
                assert max(peak.values()) <= model.ROW_BLOCK
                assert 2 * min(rows) >= max(rows)

    def test_two_transformer_workers_hold_32_rows_of_tape(self, monkeypatch, transformer_rows):
        model, x, y = transformer_rows
        force_block_workers(monkeypatch, 2)
        atk.pgd(model, x[:64], y[:64], 0.1, 2)
        tracemalloc.start()
        try:
            atk.pgd(model, x[:64], y[:64], 0.1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two live 32-row tapes peaked at 63-65 MiB; two 16-row ones peak at
        # 24.3-26.9 MiB, and one 16-row input_gradient at 13.4 MiB
        assert peak < 36 * 2**20


def force_block_workers(monkeypatch, workers):
    monkeypatch.setattr(md, "_workers", lambda: workers)


@pytest.fixture(scope="module")
def transformer_rows():
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, 1.0, size=(304, 24))
    y = (rng.uniform(size=304) < 0.3).astype(np.float64)
    return make_model("transformer", seed=5), x, y


def on_helpers_first(seen_helper: threading.Event) -> None:
    """Hold the calling thread until a helper has run a block."""
    if threading.current_thread() is threading.main_thread():
        assert seen_helper.wait(10)
    else:
        seen_helper.set()


class TestRowBlockWorkers:
    """Row blocks spread over several workers keep every result's bits."""

    SIZES = (0, 1, 15, 16, 17, 33, 64, 65, 130, 304)

    # one setting of each parameter per case keeps the test under 30 s
    @pytest.mark.parametrize("iters,project", [
        pytest.param(1, False, marks=pytest.mark.slow),
        pytest.param(3, True, marks=pytest.mark.slow)])
    def test_pgd_bits_do_not_depend_on_the_worker_count(self, monkeypatch, transformer_rows,
                                                         iters, project):
        model, x, y = transformer_rows
        for n in self.SIZES:
            results = []
            for workers in (1, 2, 3):
                force_block_workers(monkeypatch, workers)
                results.append(atk.pgd(model, x[:n], y[:n], 0.1, iters, project=project))
            assert results[0].shape == (n, 24)
            assert all(np.array_equal(out, results[0]) for out in results[1:]), n

    def test_predict_proba_bits_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                                  transformer_rows):
        model, x, _ = transformer_rows
        for n in self.SIZES:
            results = []
            for workers in (1, 2, 3):
                force_block_workers(monkeypatch, workers)
                results.append(predict_proba(model, x[:n]))
            assert results[0].shape == (n,)
            assert all(np.array_equal(out, results[0]) for out in results[1:]), n

    def test_lstm_bits_do_not_depend_on_the_worker_count(self, monkeypatch):
        model = make_model("lstm", seed=5)
        rng = np.random.default_rng(13)
        x = rng.uniform(0.0, 1.0, size=(304, 24))
        y = (rng.uniform(size=304) < 0.3).astype(np.float64)
        for n in self.SIZES:
            results = []
            for workers in (1, 2, 3):
                force_block_workers(monkeypatch, workers)
                results.append((atk.pgd(model, x[:n], y[:n], 0.1, 3, project=True),
                                predict_proba(model, x[:n])))
            assert all(np.array_equal(a, results[0][0]) and np.array_equal(p, results[0][1])
                       for a, p in results[1:]), n

    def test_a_helper_error_reaches_the_caller_after_the_join(self, monkeypatch,
                                                             transformer_rows):
        model, x, _ = transformer_rows
        y = np.full(130, 2.0)  # a bad label in every block
        helper_failed = threading.Event()
        grad_fn = atk.input_gradient

        def spy_gradient(m, xb, yb, *args):
            if threading.current_thread() is threading.main_thread():
                assert helper_failed.wait(10)
                return np.zeros_like(xb)  # the caller's blocks do not fail
            try:
                return grad_fn(m, xb, yb, *args)
            except ValueError:
                helper_failed.set()
                raise

        force_block_workers(monkeypatch, 2)
        monkeypatch.setattr(atk, "input_gradient", spy_gradient)
        before = threading.active_count()
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            atk.pgd(model, x[:130], y, 0.1, 2)
        assert helper_failed.is_set()
        assert threading.active_count() == before

    def test_predict_proba_records_no_tape_on_any_worker(self, monkeypatch, transformer_rows):
        model, x, _ = transformer_rows
        seen, seen_helper = [], threading.Event()
        forward = md.TransformerClassifier.forward

        def spy_forward(self, xb, want=None):
            on_helpers_first(seen_helper)
            out = forward(self, xb, want)
            seen.append((threading.get_ident(), out[1]))
            return out

        force_block_workers(monkeypatch, 2)
        monkeypatch.setattr(md.TransformerClassifier, "forward", spy_forward)
        predict_proba(model, x[:130])
        assert len({thread for thread, _ in seen}) == 2
        assert all(closures == [None, None] for _, closures in seen)

    def test_helpers_read_the_callers_weight_arrays(self, monkeypatch, transformer_rows):
        model, x, y = transformer_rows
        handed, read, seen_helper = [], [], threading.Event()
        grad_fn, forward = atk.input_gradient, md.TransformerClassifier.forward

        def spy_gradient(m, xb, yb, *args):
            on_helpers_first(seen_helper)
            handed.append((threading.get_ident(), m))
            return grad_fn(m, xb, yb, *args)

        def spy_forward(self, xb, want=None):
            read.append((self is model, dict(self.params)))
            return forward(self, xb, want)

        force_block_workers(monkeypatch, 2)
        monkeypatch.setattr(atk, "input_gradient", spy_gradient)
        monkeypatch.setattr(md.TransformerClassifier, "forward", spy_forward)
        atk.pgd(model, x[:130], y[:130], 0.1, 1)
        assert len({thread for thread, _ in handed}) == 2
        assert all(m is model for _, m in handed)
        # each forward pass reads the model's own arrays, copying none
        assert len(read) == len(handed)
        for own, weights in read:
            assert own
            assert all(weights[name] is p for name, p in model.params.items())

    def test_lstm_blocks_start_one_helper_thread(self, monkeypatch):
        monkeypatch.setattr(md, "blas_threads", lambda: 1)  # as after the pin, on any build
        monkeypatch.setattr(md.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert md._workers() == 2
        started, thread_cls = [], md.threading.Thread

        class CountingThread(thread_cls):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(md.threading, "Thread", CountingThread)
        model = make_model("lstm", seed=2)
        rng = np.random.default_rng(14)
        x = rng.uniform(0.0, 1.0, size=(304, 24))
        y = (rng.uniform(size=304) < 0.3).astype(np.float64)
        atk.pgd(model, x, y, 0.1, 2)
        assert len(started) == 1
        predict_proba(model, x)
        assert len(started) == 2


class TestAwgn:
    def test_sample_variance(self):
        x = np.zeros((5000, 24))  # 120k elements
        out = atk.awgn(x, rng_for(1, "awgn"))
        assert abs((out - x).var() - atk.AWGN_VARIANCE) < 0.005

    def test_deterministic_per_seed(self):
        x = np.ones((4, 24))
        a = atk.awgn(x, rng_for(7, "awgn"))
        b = atk.awgn(x, rng_for(7, "awgn"))
        assert np.array_equal(a, b)


class TestPoisonBatch:
    def test_none_is_identity_copy(self, trained):
        model, x, y = trained
        xp, yp = atk.poison_batch(model, x, y, AttackSpec(), rng_for(0))
        assert np.array_equal(xp, x) and np.array_equal(yp, y)
        assert xp is not x and yp is not y

    def test_label_flip_keeps_inputs(self, trained):
        model, x, y = trained
        spec = AttackSpec(family="label_flip")
        xp, yp = atk.poison_batch(model, x, y, spec, rng_for(0))
        assert np.array_equal(xp, x)
        assert np.array_equal(yp, 1 - y)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_label_flip_inverts_every_label(self, dtype):
        y = np.random.default_rng(0).integers(0, 2, size=50).astype(dtype)
        kept = y.copy()
        _, yp = atk.poison_batch(None, np.ones((50, 24)), y, AttackSpec(family="label_flip"),
                                 rng_for(1))
        assert yp.dtype == dtype and np.array_equal(yp, 1 - kept)
        assert np.array_equal(y, kept)

    def test_gradient_attacks_keep_labels(self, trained):
        model, x, y = trained
        for family in ("fgsm", "pgd"):
            spec = AttackSpec(family=family, epsilon=0.2, pgd_iters=2)
            xp, yp = atk.poison_batch(model, x, y, spec, rng_for(0))
            assert np.array_equal(yp, y)
            assert not np.array_equal(xp, x)


class TestDump:
    def test_schema(self, tmp_path, trained):
        model, x, y = trained
        x_adv = atk.fgsm(model, x[:3], y[:3], 0.5)
        out = tmp_path / "adv.csv"
        atk.dump_adversarial_csv(x_adv, y[:3], ["none"] * 3, "fgsm", 0.5, out)
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["v0", "v1"]
        assert header[-4:] == ["label", "kind", "attack_family", "epsilon"]
        assert lines[1].split(",")[-2:] == ["fgsm", "0.5"]
        assert len(lines) == 4

    def test_twelve_digits_and_byte_identical_rewrite(self, tmp_path):
        x_adv = np.random.default_rng(5).uniform(size=(20, 24))
        x_adv[0, 0] = 1.0 / 3.0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            atk.dump_adversarial_csv(x_adv, np.zeros(20, int), ["none"] * 20, "pgd",
                                     1.0 / 3.0, path)
        assert a.read_bytes() == b.read_bytes()
        fields = a.read_text().splitlines()[1].split(",")
        assert fields[0] == "0.333333333333"  # 12 significant digits
        assert fields[-4:] == ["0", "none", "pgd", "0.333333333333"]

    @pytest.mark.parametrize("labels,kinds", [(3, 2), (2, 3), (4, 3)])
    def test_length_mismatch_writes_no_file(self, tmp_path, labels, kinds):
        out = tmp_path / "adv.csv"
        with pytest.raises(ValueError, match="equal lengths"):
            atk.dump_adversarial_csv(np.zeros((3, 24)), np.zeros(labels, int),
                                     ["none"] * kinds, "fgsm", 0.5, out)
        assert not out.exists()
