import numpy as np
import pytest

from fedmeter import evaluation as ev
from fedmeter.attacks import AWGN_VARIANCE, AttackSpec, poison_batch
from fedmeter.models import make_model, sigmoid_head


class StubModel:
    """Fixed-probability model for exercising the metric plumbing."""

    ROW_BLOCK = 64

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.params = {}
        self._cursor = 0

    def forward(self, x, want=None):
        start = self._cursor
        out = self.probs[start:start + len(x)]
        self._cursor = 0 if start + len(x) >= len(self.probs) else start + len(x)
        return out, [None]


class TestClassify:
    def test_boundary_is_positive(self):
        model = StubModel([0.5, 0.49, 0.51])
        labels = ev.classify(model, np.zeros((3, 24)))
        np.testing.assert_array_equal(labels, [1, 0, 1])


def oracle_metrics(pred, truth):
    """Brute-force confusion counting, one sample at a time."""
    tp = fp = tn = fn = 0
    for p, t in zip(pred, truth):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 0:
            tn += 1
        else:
            fn += 1
    acc = (tp + tn) / len(pred)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return acc, prec, rec, f1, tp, fp, tn, fn


class TestComputeMetrics:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 1, 0, 1])
        m = ev.compute_metrics(y, y)
        assert m.accuracy == 1.0 and m.f1 == 1.0 and not m.degenerate

    def test_total_inversion(self):
        truth = np.array([0, 1, 0, 1])
        m = ev.compute_metrics(1 - truth, truth)
        assert m.accuracy == 0.0

    def test_hand_computed_confusion(self):
        # tp=3, fp=1, fn=2, tn=4
        truth = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        pred = np.array([1, 1, 1, 0, 0, 1, 0, 0, 0, 0])
        m = ev.compute_metrics(pred, truth)
        assert (m.tp, m.fp, m.fn, m.tn) == (3, 1, 2, 4)
        assert m.precision == 0.75
        assert m.recall == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2 / 3, rel=1e-12)
        assert m.accuracy == pytest.approx(0.7)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            pred = rng.integers(0, 2, n)
            truth = rng.integers(0, 2, n)
            m = ev.compute_metrics(pred, truth)
            acc, prec, rec, f1, tp, fp, tn, fn = oracle_metrics(pred, truth)
            assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
            assert m.accuracy == acc and m.precision == prec
            assert m.recall == rec and m.f1 == f1
            for value in (m.accuracy, m.precision, m.recall, m.f1):
                assert 0.0 <= value <= 1.0

    def test_degenerate_precision_flagged(self):
        m = ev.compute_metrics(np.zeros(4, int), np.array([1, 1, 0, 0]))
        assert m.precision == 0.0 and m.degenerate

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ev.compute_metrics(np.array([]), np.array([]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ev.compute_metrics(np.zeros(3, int), np.zeros(4, int))


class TestAsrInference:
    def test_unattacked_is_zero(self):
        probs = np.linspace(0.1, 0.9, 4)
        model = StubModel(np.r_[probs, probs])  # same answers for adv and clean pass
        x = np.zeros((4, 24))
        report = ev.asr_inference(model, x, x)
        assert report.asr == 0.0

    def test_quarter_flip(self):
        # clean probs then adv probs; one of four crosses the threshold
        model = StubModel([0.1, 0.2, 0.3, 0.9, 0.1, 0.2, 0.8, 0.9])
        report = ev.asr_inference(model, np.zeros((4, 24)), np.ones((4, 24)))
        assert report.asr == 0.25 and report.flipped == 1

    def test_reorder_invariance(self):
        rng = np.random.default_rng(3)
        probs_adv = rng.uniform(size=12)
        probs_clean = rng.uniform(size=12)
        order = rng.permutation(12)
        a = ev.asr_inference(StubModel(np.r_[probs_adv, probs_clean]),
                             np.zeros((12, 24)), np.ones((12, 24)))
        b = ev.asr_inference(StubModel(np.r_[probs_adv[order], probs_clean[order]]),
                             np.zeros((12, 24)), np.ones((12, 24)))
        assert a.asr == b.asr

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ev.asr_inference(StubModel([0.5]), np.zeros((2, 24)), np.zeros((3, 24)))

    def test_empty_set_raises(self):
        with pytest.raises(ValueError, match="empty sample set"):
            ev.asr_inference(StubModel([0.5]), np.zeros((0, 24)), np.zeros((0, 24)))

    def test_accuracy_drop_bounded_by_asr(self):
        rng = np.random.default_rng(9)
        clean_p = rng.uniform(size=40)
        adv_p = np.clip(clean_p + rng.normal(0, 0.4, 40), 0.001, 0.999)
        truth = rng.integers(0, 2, 40)
        x = np.zeros((40, 24))
        acc_clean = ev.compute_metrics(ev.classify(StubModel(clean_p), x), truth).accuracy
        acc_adv = ev.compute_metrics(ev.classify(StubModel(adv_p), x), truth).accuracy
        report = ev.asr_inference(StubModel(np.r_[adv_p, clean_p]), x, np.ones((40, 24)))
        assert acc_clean - acc_adv <= report.asr + 1e-12


class TestAsrTraining:
    """The training protocol: a cleanly trained and an attacked-trained model's
    predictions on the same clean test set."""

    @staticmethod
    def asr(model_clean, model_attacked, x):
        return ev.asr_from_predictions(ev.classify(model_clean, x),
                                       ev.classify(model_attacked, x))

    def test_identical_models_zero(self):
        probs = np.linspace(0.05, 0.95, 10)
        report = self.asr(StubModel(probs), StubModel(probs), np.zeros((10, 24)))
        assert report.asr == 0.0

    def test_total_disagreement(self):
        a = StubModel(np.full(6, 0.9))
        b = StubModel(np.full(6, 0.1))
        report = self.asr(a, b, np.zeros((6, 24)))
        assert report.asr == 1.0

    def test_empty_set_raises(self):
        with pytest.raises(ValueError, match="empty sample set"):
            self.asr(StubModel([0.5]), StubModel([0.5]), np.zeros((0, 24)))

    def test_truth_independent(self):
        a = StubModel(np.array([0.9, 0.1, 0.9, 0.1]))
        b = StubModel(np.array([0.9, 0.9, 0.1, 0.1]))
        x = np.zeros((4, 24))
        assert self.asr(a, b, x).asr == 0.5  # no y anywhere in the call


class CountingModel:
    """Logistic model over the 24 inputs, the models' sigmoid head, that
    counts its forward passes: ``predict_proba`` asks for no gradient,
    ``input_gradient`` for the input's."""

    ROW_BLOCK = 64

    def __init__(self, seed=0):
        w = np.random.default_rng(seed).normal(0.0, 0.5, (24, 1))
        self.params = {"w": w, "b": np.zeros(1)}
        self.predictions = self.gradients = 0

    def forward(self, x, want=None):
        if want:
            self.gradients += 1
        else:
            self.predictions += 1
        probs, head = sigmoid_head(np.asarray(x, dtype=np.float64), self.params, "", want)
        return probs, [head]


def attack_set(n=24, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, 24)), rng.integers(0, 2, n)


class TestEvaluateAttacks:
    SPECS = [AttackSpec("fgsm", epsilon=0.2), AttackSpec("awgn"),
             AttackSpec("pgd", epsilon=0.1, pgd_iters=3, project_linf=True)]

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_one_classification_per_input_set(self, monkeypatch, k):
        poisoned = []

        def counting_poison_batch(*args, **kwargs):
            poisoned.append(args[3])
            return poison_batch(*args, **kwargs)

        monkeypatch.setattr(ev, "poison_batch", counting_poison_batch)
        model = CountingModel()
        x, y = attack_set()  # one row block, so one forward pass per predict_proba
        _, clean, attacked = ev.evaluate_attacks(model, x, y, self.SPECS[:k],
                                                 np.random.default_rng(0))
        assert model.predictions == 1 + k
        assert poisoned == self.SPECS[:k]
        assert [spec for spec, *_ in attacked] == self.SPECS[:k]
        assert clean == ev.compute_metrics(ev.classify(model, x), y)

    def test_awgn_specs_draw_in_spec_order_from_one_generator(self):
        x, y = attack_set()
        *_, attacked = ev.evaluate_attacks(
            CountingModel(), x, y, [AttackSpec("awgn"), AttackSpec("awgn")],
            np.random.default_rng(11))
        rng = np.random.default_rng(11)
        first = x + rng.normal(0.0, np.sqrt(AWGN_VARIANCE), size=x.shape)
        second = x + rng.normal(0.0, np.sqrt(AWGN_VARIANCE), size=x.shape)
        assert np.array_equal(attacked[0][1], first)
        assert np.array_equal(attacked[1][1], second)

    def test_label_flip_raises_before_any_work(self):
        model = CountingModel()
        x, y = attack_set()
        with pytest.raises(ValueError, match="label_flip"):
            ev.evaluate_attacks(model, x, y, [AttackSpec("fgsm"), AttackSpec("label_flip")],
                                np.random.default_rng(0))
        assert model.predictions == model.gradients == 0

    @pytest.mark.parametrize("model_name", ["counting", "lstm"])
    def test_equals_the_hand_written_sequence(self, model_name):
        model = CountingModel() if model_name == "counting" else make_model("lstm", seed=2)
        x, y = attack_set(n=40)
        kwargs = {"alpha": 0.4, "gamma": 1.5}
        pred, clean, attacked = ev.evaluate_attacks(model, x, y, self.SPECS,
                                                    np.random.default_rng(3), **kwargs)
        rng = np.random.default_rng(3)
        pred_clean = ev.classify(model, x)
        assert np.array_equal(pred, pred_clean)
        assert clean == ev.compute_metrics(pred_clean, y)
        for spec, (got_spec, x_adv, metrics, report) in zip(self.SPECS, attacked):
            expected, _ = poison_batch(model, x, y, spec, rng, **kwargs)
            pred = ev.classify(model, expected)
            assert got_spec == spec and np.array_equal(x_adv, expected)
            assert metrics == ev.compute_metrics(pred, y)
            assert report == ev.asr_from_predictions(pred_clean, pred)


class TestExport:
    def test_row_formatting(self):
        m = ev.compute_metrics(np.array([1, 0, 1, 1]), np.array([1, 0, 0, 1]))
        row = ev.metrics_row("LSTM (Central)", "fgsm", m,
                             ev.AsrReport(1, 4, 0.25))
        assert row[0] == "LSTM (Central)"
        assert row[2] == "75.00" and row[-1] == "25.00"

    def test_baseline_asr_empty(self):
        m = ev.compute_metrics(np.array([1, 0]), np.array([1, 0]))
        assert ev.metrics_row("x", "none", m, None)[-1] == ""

    def test_csv_write(self, tmp_path):
        m = ev.compute_metrics(np.array([1, 0]), np.array([1, 0]))
        path = tmp_path / "metrics.csv"
        ev.write_metrics_csv([ev.metrics_row("a", "none", m, None)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "setting,attack,acc,prec,rec,f1,asr"
        assert lines[1].startswith("a,none,100.00")
