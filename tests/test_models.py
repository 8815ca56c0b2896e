import itertools
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tape
from fedmeter import autodiff as ad
from fedmeter import models as md
from fedmeter.models import (LstmClassifier, RmsProp, TrainConfig,
                             TransformerClassifier, focal_loss, input_gradient, lr_at_epoch,
                             make_model, predict_proba, train_local)

from composed import (composed_focal_loss, composed_layer_norm, composed_linear,
                      composed_sigmoid_head, composed_transformer_encoder, layer_norm, linear,
                      mean, mul, softmax)
from gradcheck import assert_grad_matches
from training import train_epochs
from tape import Tensor


def small_batch(seed=0, n=4):
    return np.random.default_rng(seed).uniform(0, 1, size=(n, 24))


def loss_and_grads(model, x, y, want="weights"):
    """The focal loss of ``model`` on ``(x, y)``, and the input gradient and
    weight gradients its backward pass gives for ``want``."""
    probs, steps = model.forward(x, want)
    loss, step = focal_loss(probs, y, want=want)
    steps.append(step)
    return (loss, *ad.backward(steps))


@pytest.fixture(params=["lstm", "transformer"])
def model(request):
    return make_model(request.param, seed=1)


class TestForward:
    def test_outputs_are_probabilities(self, model):
        p = predict_proba(model, small_batch())
        assert np.all((p > 0.0) & (p < 1.0))

    def test_zero_head_gives_half(self, model):
        w = model.get_weights()
        for name in w:
            if name.startswith("head.out") or name == "head.w" or name == "head.b":
                w[name] = np.zeros_like(w[name])
        model.set_weights(w)
        p = predict_proba(model, small_batch())
        assert np.all(p == 0.5)

    def test_batch_permutation_equivariance(self, model):
        x = small_batch(seed=3, n=8)
        perm = np.array([5, 1, 7, 0, 3, 6, 2, 4])
        p = predict_proba(model, x)
        p_perm = predict_proba(model, x[perm])
        np.testing.assert_array_equal(p_perm, p[perm])

    def test_wrong_sequence_length(self, model):
        with pytest.raises(ad.ShapeError, match="24"):
            model.forward(np.ones((2, 23)))

    def test_extreme_inputs_stay_finite(self, model):
        rng = np.random.default_rng(0)
        x = rng.uniform(-10, 10, size=(6, 24))
        p = predict_proba(model, x)
        assert np.all(np.isfinite(p)) and np.all((p >= 0) & (p <= 1))


class TestFocalLoss:
    def test_gamma_zero_is_half_bce(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, size=32)
        y = rng.integers(0, 2, size=32).astype(float)
        loss = focal_loss(p, y, alpha=0.5, gamma=0.0)[0]
        bce = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert loss == pytest.approx(0.5 * bce, rel=1e-12)

    def test_perfect_prediction_is_near_zero(self):
        loss = focal_loss(np.array([1.0]), np.array([1.0]))[0]
        assert 0 <= loss < 1e-20

    def test_reference_value(self):
        # alpha*(1-p_t)^gamma*(-log p_t) at p_t=0.5: 0.25 * 0.25 * ln 2
        loss = focal_loss(np.array([0.5]), np.array([1.0]), alpha=0.25, gamma=2.0)[0]
        assert loss == pytest.approx(0.25 * 0.25 * np.log(2.0), rel=1e-12)
        assert loss == pytest.approx(0.043322, abs=5e-7)

    def test_rejects_invalid_probabilities(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            focal_loss(np.array([1.5]), np.array([1.0]))
        with pytest.raises(ValueError, match="labels"):
            focal_loss(np.array([0.5]), np.array([2.0]))

    def test_gradient_matches_oracle(self):
        rng = np.random.default_rng(3)
        p_np = rng.uniform(0.1, 0.9, size=10)
        y = rng.integers(0, 2, size=10).astype(float)

        def f(arrs):
            return focal_loss(arrs[0], y)[0]

        grad = ad.backward([focal_loss(p_np, y, want="input")[1]])[0]
        assert_grad_matches(f, [p_np], [grad], rng)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 1.5, 3.7])
    def test_fused_rule_matches_finite_differences(self, gamma, alpha):
        rng = np.random.default_rng(5)
        p_np = rng.uniform(0.05, 0.95, size=12)
        y = np.tile([0.0, 1.0], 6)

        def f(arrs):
            return focal_loss(arrs[0], y, alpha, gamma)[0]

        grad = ad.backward([focal_loss(p_np, y, alpha, gamma, "input")[1]])[0]
        assert_grad_matches(f, [p_np], [grad], rng)

    # both clip edges, and p on either side of each
    P_EDGES = [0.0, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 1e-13, 1.0]

    @pytest.mark.parametrize("rows", [1, 33])
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 2.0, 3.7])
    def test_fused_loss_matches_the_composed_chain(self, gamma, alpha, rows):
        """The loss and the gradient of ``p``, bit for bit, under an outer
        gradient other than 1."""
        if rows == 1:
            batches = [(np.array([p]), np.array([y]))
                       for p in self.P_EDGES + [0.3] for y in (0.0, 1.0)]
        else:
            rng = np.random.default_rng(0)
            p = rng.uniform(size=rows)
            p[:12] = self.P_EDGES * 2
            y = (rng.uniform(size=rows) < 0.4).astype(np.float64)
            y[:12] = [0.0] * 6 + [1.0] * 6
            batches = [(p, y)]

        def run(loss_fn, p_np, y):
            p = Tensor(p_np, requires_grad=True)
            loss = loss_fn(p, y, alpha, gamma)
            tape.backward(mul(loss, Tensor(-0.7)))
            return loss.data, p.grad

        for p_np, y in batches:
            (loss_f, grad_f), (loss_c, grad_c) = (run(tape.focal_loss, p_np, y),
                                                  run(composed_focal_loss, p_np, y))
            assert np.array_equal(loss_f, loss_c)
            assert np.array_equal(grad_f, grad_c)


class TestRmsProp:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, 2.0])
        opt = RmsProp()
        opt.step({"p": p}, {"p": np.zeros(2)}, lr=0.1)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_first_step_closed_form(self):
        g = np.array([0.3, -0.7, 2.0])
        p = np.zeros(3)
        rho, eps, lr = md.RMSPROP_RHO, md.RMSPROP_EPS, 0.01
        opt = RmsProp()
        opt.step({"p": p}, {"p": g.copy()}, lr)
        expected = -lr * g / (np.sqrt((1 - rho) * g * g) + eps)
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_parameters_updated_independently(self):
        a, b = np.zeros(2), np.zeros(3)
        opt = RmsProp()
        opt.step({"a": a, "b": b}, {"a": np.ones(2), "b": np.zeros(3)}, lr=0.1)
        assert np.all(a != 0) and np.all(b == 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            RmsProp().step({"p": np.zeros(2)}, {"p": np.zeros(3)}, lr=0.1)


class TestSchedule:
    def test_decay_points(self):
        cfg = TrainConfig()
        assert lr_at_epoch(cfg, 1) == 0.01
        assert lr_at_epoch(cfg, 49) == 0.01
        assert lr_at_epoch(cfg, 50) == pytest.approx(1e-3)
        assert lr_at_epoch(cfg, 70) == pytest.approx(1e-4)
        assert lr_at_epoch(cfg, 90) == pytest.approx(1e-5)
        assert lr_at_epoch(cfg, 95) == pytest.approx(1e-5)
        assert lr_at_epoch(cfg, 100) == pytest.approx(0.01 * 0.1 ** 3)


def separable_toy(n=40, seed=0):
    """Trivially separable profiles: near-zero days vs near-one days."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.uniform(0.0, 0.08, size=(half, 24))
    x1 = rng.uniform(0.92, 1.0, size=(half, 24))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(half), np.ones(half)])
    return x, y


class TestTraining:
    # the transformer needs the tamer desk-scale learning rate to train
    # stably from scratch; the LSTM takes the default schedule
    @pytest.mark.parametrize("name,lr,n", [
        ("lstm", 0.01, 40), pytest.param("transformer", 1e-3, 96, marks=pytest.mark.slow)])
    def test_separable_toy_converges(self, name, lr, n):
        x, y = separable_toy(n=n)
        model = make_model(name, seed=0)
        cfg = TrainConfig(epochs=100 if name == "lstm" else 40, base_lr=lr)
        history = train_epochs(model, x, y, cfg, seed=0)
        assert min(history) < 0.01

    def test_same_seed_same_weights(self):
        x, y = separable_toy(n=16, seed=2)
        cfg = TrainConfig(epochs=3)

        def run():
            m = LstmClassifier(seed=4)
            train_epochs(m, x, y, cfg, seed=7)
            return m.get_weights()

        wa, wb = run(), run()
        assert all(np.array_equal(wa[k], wb[k]) for k in wa)

    def test_loss_history_length(self):
        x, y = separable_toy(n=16)
        m = LstmClassifier(seed=0)
        history = train_epochs(m, x, y, TrainConfig(epochs=5), seed=0)
        assert len(history) == 5
        assert all(isinstance(loss, float) for loss in history)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_local(LstmClassifier(), np.zeros((0, 24)), np.zeros(0), TrainConfig(),
                        seed=0, epoch=1)


class TestInputGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = LstmClassifier(seed=5)
        x = rng.uniform(0, 1, size=(3, 24))
        y = np.array([0.0, 1.0, 0.0])

        def f(arrs):
            return focal_loss(model.forward(arrs[0])[0], y)[0]

        grad = input_gradient(model, x, y)
        assert_grad_matches(f, [x], [grad], rng, coords_per_array=12)

    def test_duplicated_sample_rows_match(self, model):
        x_row = np.random.default_rng(1).uniform(0, 1, size=24)
        x = np.vstack([x_row, x_row])
        grad = input_gradient(model, x, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(grad[0], grad[1])

    def test_zero_head_zero_gradient(self):
        model = LstmClassifier(seed=0)
        w = model.get_weights()
        w["head.w"] = np.zeros_like(w["head.w"])
        w["head.b"] = np.zeros_like(w["head.b"])
        model.set_weights(w)
        grad = input_gradient(model, small_batch(), np.zeros(4))
        np.testing.assert_array_equal(grad, np.zeros((4, 24)))

    def test_weights_and_their_grads_untouched(self, model):
        # the same map, holding the same arrays with the same values
        params, arrays, before = model.params, dict(model.params), model.get_weights()
        input_gradient(model, small_batch(), np.ones(4))
        assert model.params is params
        assert [k for k in arrays if params[k] is not arrays[k]] == []
        assert [k for k in before if not np.array_equal(before[k], params[k])] == []

    def test_two_threads_share_one_model(self, model, monkeypatch):
        rng = np.random.default_rng(3)
        xs = [rng.uniform(0, 1, size=(16, 24)) for _ in range(2)]
        ys = [(rng.uniform(size=16) < 0.5).astype(np.float64) for _ in range(2)]
        want = [input_gradient(model, x, y) for x, y in zip(xs, ys)]
        before = model.get_weights()
        got = [None, None]
        both_inside = threading.Barrier(2, timeout=10)
        forward = type(model).forward

        def overlapping_forward(self, x, want=None):
            both_inside.wait()  # each thread is inside input_gradient
            return forward(self, x, want)

        def run(i):
            got[i] = input_gradient(model, xs[i], ys[i])

        monkeypatch.setattr(type(model), "forward", overlapping_forward)
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert all(g is not None and np.array_equal(g, w) for g, w in zip(got, want))
        assert all(np.array_equal(before[k], p) for k, p in model.params.items())


class TestNonFiniteGuards:
    """A NaN or infinity in the batch or a weight fails cleanly at each entry
    point: ValueError for the batch, FloatingPointError (the CLI's exit 3)
    naming the weight."""

    ENTRY_POINTS = {
        "predict_proba": lambda m, x, y: predict_proba(m, x),
        "input_gradient": lambda m, x, y: input_gradient(m, x, y),
        "train_local": lambda m, x, y: train_local(m, x, y, TrainConfig(), seed=0, epoch=1),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_finite_batch_rejected(self, model, entry, bad):
        x = small_batch()
        x[2, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            self.ENTRY_POINTS[entry](model, x, np.zeros(4))

    @pytest.mark.parametrize("entry", ["predict_proba", "input_gradient", "train_local"])
    def test_non_finite_weight_named(self, model, entry):
        name = sorted(model.params)[1]
        model.params[name][..., 0] = -np.inf
        with pytest.raises(FloatingPointError, match=f"weight {name}: holds a non-finite"):
            self.ENTRY_POINTS[entry](model, small_batch(), np.zeros(4))

    def test_training_fails_numerically_on_a_non_finite_weight(self, model):
        name = sorted(model.params)[0]
        model.params[name][..., 0] = np.nan
        with pytest.raises(FloatingPointError, match=f"weight {name}: holds a non-finite"):
            self.ENTRY_POINTS["train_local"](model, small_batch(), np.zeros(4))


class TestRowBlocks:
    def test_blocks_cover_the_batch_near_equally(self):
        for cap, n in itertools.product((32, 64), range(0, 2000)):
            blocks = md.row_blocks(n, cap)
            sizes = [b.stop - b.start for b in blocks]
            edges = [0] + [b.stop for b in blocks]
            assert [b.start for b in blocks] == edges[:-1] and edges[-1] == n
            assert all(0 < s <= cap for s in sizes)
            if n <= cap:
                assert len(blocks) == min(n, 1)
            else:
                assert 2 * min(sizes) >= max(sizes)

    @pytest.mark.parametrize("cap", [16, 32, 48])
    def test_a_smaller_cap_keeps_the_grid(self, cap):
        for n in range(0, 700):
            blocks = md.row_blocks(n, cap)
            sizes = [b.stop - b.start for b in blocks]
            edges = [0] + [b.stop for b in blocks]
            assert [b.start for b in blocks] == edges[:-1] and edges[-1] == n
            assert all(0 < s <= cap for s in sizes)
            assert all(b.stop % 8 == 0 for b in blocks[:-1])
            if n > cap:
                assert 2 * min(sizes) >= max(sizes)

    @pytest.mark.parametrize("cls", md.MODEL_FACTORIES.values())
    def test_each_model_holds_whole_pairs_of_grid_units(self, cls):
        # so two workers each get a block of at least two grid units
        assert cls.ROW_BLOCK > 0 and cls.ROW_BLOCK % (2 * md._ROW_ALIGN) == 0

    def test_the_lstm_keeps_64_rows_in_flight(self):
        # at 16 rows its input_gradient cost 0.37 ms per row, at 32-64 rows
        # 0.27-0.31 ms
        assert md.LstmClassifier.ROW_BLOCK == 64

    @pytest.mark.parametrize("name,n", [("transformer", 304), ("lstm", 1520)])
    def test_predict_proba_equals_one_forward(self, name, n):
        model = make_model(name, seed=1)
        x = small_batch(seed=9, n=n)
        whole = model.forward(x)[0]
        assert np.array_equal(predict_proba(model, x), whole)


class TestSkippedGradientsAreBitExact:
    """Skipping unrequested gradients leaves the requested ones bit-identical."""

    @pytest.mark.parametrize("name", ["lstm", "transformer"])
    def test_input_gradient_matches_full_backward(self, name):
        # the sigmoid head gives its input's gradient in either mode: with
        # its weight gradients too, it hands the encoder the same bits
        model = make_model(name, seed=4)
        x = small_batch(seed=6, n=5)
        y = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        frozen = input_gradient(model, x, y)
        if name == "lstm":
            h, encoder = md.lstm_sequence(x, model.params, "input")
            prefix = "head."
        else:
            h, encoder = md.transformer_encoder(x, model.params, "input")
            prefix = "head.out."
        probs, head = md.sigmoid_head(h, model.params, prefix, "weights")
        d_x, grads = ad.backward([encoder, head, focal_loss(probs, y, want="weights")[1]])
        assert sorted(grads) == [prefix + "b", prefix + "w"]
        assert np.array_equal(frozen, d_x)


def tape_rules(t):
    """The backward rules of the test-side tape behind the Tensor ``t``."""
    rules, reached, nodes = [], set(), [t._node]
    while nodes:
        node = nodes.pop()
        if type(node) is not tape._Node or id(node) in reached:
            continue
        reached.add(id(node))
        nodes.extend(node.inputs)
        rules.append(node.backward_fn)
    return rules


def tape_inventory(closures, exclude=()):
    """What a chain of backward closures holds, such as a model's forward
    returns: one ``(shape, dtype, bytes, rule)`` per distinct array that a
    closure reaches, through its cells and the lists, tuples, dicts and
    functions in them.

    A view counts once, as the array whose buffer it views.  Arrays that
    share a buffer with one in ``exclude`` (weights, model constants) are
    left out.  ``rule`` is the name of the function that made the closure,
    such as ``"transformer_encoder"``, or ``"linear"`` for a rule of the
    test-side tape (see :func:`tape_rules`).
    """
    def base(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    counted = {id(base(np.asarray(a))) for a in exclude}
    held, reached = [], set()
    for closure in closures:
        rule = closure.__qualname__.split(".")[0]
        items = [c.cell_contents for c in closure.__closure__ or ()]
        while items:
            item = items.pop()
            if id(item) in reached:
                continue
            reached.add(id(item))
            if isinstance(item, np.ndarray):
                arr = base(item)
                if id(arr) not in counted:
                    counted.add(id(arr))
                    held.append((arr.shape, arr.dtype, arr.nbytes, rule))
            elif isinstance(item, (list, tuple)):
                items.extend(item)
            elif isinstance(item, dict):
                items.extend(item.values())
            elif callable(item) and getattr(item, "__closure__", None):
                items.extend(c.cell_contents for c in item.__closure__)
    return held


class TestFusedKernelsAreBitExact:
    """The fused kernels reproduce their composed oracles bit for bit."""

    @pytest.mark.parametrize("fused,composed,shapes", [
        (layer_norm, composed_layer_norm, [(3, 4, 6), (6,), (6,)]),
        (linear, composed_linear, [(3, 4, 5), (5, 2), (2,)]),
        (linear, composed_linear, [(4, 5), (5, 2), (2,)]),
    ], ids=["layer_norm", "linear_3d", "linear_2d"])
    @pytest.mark.parametrize("needs", [(True, True, True), (True, False, False),
                                       (False, True, True)],
                             ids=["all", "input_only", "weights_only"])
    def test_kernel_matches_composed(self, fused, composed, shapes, needs):
        rng = np.random.default_rng(21)
        arrays = [rng.normal(size=s) for s in shapes]

        def run(op):
            ts = [Tensor(a, requires_grad=n) for a, n in zip(arrays, needs)]
            out = op(*ts)
            tape.backward(mean(mul(out, out)))
            return out.data, [t.grad for t in ts]

        (out_f, grads_f), (out_c, grads_c) = run(fused), run(composed)
        assert np.array_equal(out_f, out_c)
        for gf, gc, need in zip(grads_f, grads_c, needs):
            assert (gf is not None) == (gc is not None) == need
            assert gc is None or np.array_equal(gf, gc)

    @pytest.mark.parametrize("needs", [(True, True, True), (True, False, False),
                                       (False, True, True)],
                             ids=["all", "input_only", "weights_only"])
    def test_sigmoid_head_matches_the_linear_sigmoid_reshape_chain(self, needs, monkeypatch):
        """At several row counts and both models' head widths, against the
        fully composed chain: a matmul node and a bias add, then sigmoid,
        then reshape, under an outer gradient other than 1."""
        monkeypatch.setattr("composed.linear", composed_linear)
        rng = np.random.default_rng(23)
        for rows, width in itertools.product((1, 5, 16, 32, 33),
                                             (md.LSTM_HIDDEN, md.DENSE_HIDDEN)):
            arrays = [rng.normal(size=(rows, width)), rng.normal(size=(width, 1)) * 0.3,
                      rng.normal(size=(1,))]
            r = rng.normal(size=rows)

            def run(op):
                ts = [Tensor(a, requires_grad=n) for a, n in zip(arrays, needs)]
                out = op(*ts)
                tape.backward(mean(mul(out, Tensor(r))))
                return out.data, [t.grad for t in ts]

            (out_f, grads_f), (out_c, grads_c) = (run(tape.sigmoid_head),
                                                  run(composed_sigmoid_head))
            assert out_f.shape == (rows,) and np.array_equal(out_f, out_c), rows
            for gf, gc, need in zip(grads_f, grads_c, needs):
                assert (gf is not None) == (gc is not None) == need
                assert gc is None or np.array_equal(gf, gc), (rows, width)

    @pytest.mark.parametrize("name", ["lstm", "transformer"])
    def test_model_matches_composed(self, name, monkeypatch):
        """Probabilities, weight gradients and input gradient of each model
        against its chain on the test-side tape: the LSTM kernel, or the
        composed encoder with composed linears and layer norms, then the
        composed sigmoid head and focal loss."""
        x = small_batch(seed=8, n=5)
        y = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        model = make_model(name, seed=6)
        probs_f = model.forward(x)[0]
        weights_f = loss_and_grads(model, x, y)[2]
        input_f = input_gradient(model, x, y)
        monkeypatch.setattr("composed.layer_norm", composed_layer_norm)
        monkeypatch.setattr("composed.linear", composed_linear)

        def composed_run(want):
            params = {k: Tensor(p, requires_grad=want == "weights")
                      for k, p in model.params.items()}
            xt = Tensor(x, requires_grad=want == "input")
            if name == "lstm":
                h = tape.lstm_sequence(xt, params["lstm.wx"], params["lstm.wh"],
                                       params["lstm.b"])
                head = params["head.w"], params["head.b"]
            else:
                h = composed_transformer_encoder(xt, params)
                head = params["head.out.w"], params["head.out.b"]
            probs = composed_sigmoid_head(h, *head)
            tape.backward(composed_focal_loss(probs, y))
            return probs.data, xt.grad, {k: p.grad for k, p in params.items()}

        probs_c, _, weights_c = composed_run("weights")
        input_c = composed_run("input")[1]
        assert np.array_equal(probs_f, probs_c)
        assert sorted(weights_f) == sorted(weights_c)
        assert all(np.array_equal(weights_f[k], weights_c[k]) for k in weights_c)
        assert np.array_equal(input_f, input_c)

    # normed is recomputed in backward, so every case saves one full array:
    # centered.  Per row, inv and var + 1e-6 when t trains, inv alone when
    # only gamma does; gamma itself only when t trains.
    @pytest.mark.parametrize("t_requires_grad,gamma_requires_grad,small_arrays", [
        (True, False, 2 * 3 * 4 + 10), (True, True, 2 * 3 * 4 + 10), (False, True, 3 * 4),
    ], ids=["frozen_gamma", "trained_gamma", "frozen_input_trained_gamma"])
    def test_layer_norm_saves_centered_and_per_row_values(self, t_requires_grad,
                                                          gamma_requires_grad, small_arrays):
        batch, steps, d = 3, 4, 10
        rng = np.random.default_rng(2)
        t = Tensor(rng.normal(size=(batch, steps, d)), requires_grad=t_requires_grad)
        gamma = Tensor(rng.normal(size=d), requires_grad=gamma_requires_grad)
        out = layer_norm(t, gamma, Tensor(np.zeros(d)))
        saved = tape_inventory(tape_rules(out))
        assert {rule for *_, rule in saved} == {"layer_norm"}
        full = [size for shape, _, size, _ in saved if shape == (batch, steps, d)]
        assert full == [8 * batch * steps * d]
        assert sum(size for _, _, size, _ in saved) // 8 - batch * steps * d == small_arrays


def reference_lstm_sequence(x, wx, wh, b):
    """The LSTM kernel before its lean tape: the oracle for ``md.lstm_sequence``.

    It forms the input product of every step in one gemm, saves six (seven
    for training) arrays per step, and forms ``d_x`` and ``d_wx`` from one
    gradient buffer over the whole sequence.
    """
    x_np, wx_np, wh_np, b_np = x.data, wx.data, wh.data, b.data
    batch, steps = x_np.shape
    h_size = wh_np.shape[0]
    need_x, need_wx = x.requires_grad, wx.requires_grad
    need_wh, need_b = wh.requires_grad, b.requires_grad

    zx = (x_np.reshape(batch * steps, 1) @ wx_np).reshape(batch, steps, 4 * h_size)
    h = np.zeros((batch, h_size))
    c = np.zeros((batch, h_size))
    saved = []
    for t in range(steps):
        z = zx[:, t, :] + h @ wh_np + b_np
        gi = md._sigmoid_np(z[:, :h_size])
        gf = md._sigmoid_np(z[:, h_size:2 * h_size])
        gg = np.tanh(z[:, 2 * h_size:3 * h_size])
        go = md._sigmoid_np(z[:, 3 * h_size:])
        c_prev, h_prev = c, h
        c = gf * c_prev + gi * gg
        tc = np.tanh(c)
        h = go * tc
        saved.append((gi, gf, gg, go, c_prev, tc, h_prev if need_wh else None))

    def bw(grad_h):
        d_wh = np.zeros_like(wh_np) if need_wh else None
        d_b = np.zeros_like(b_np) if need_b else None
        d_zx = np.empty((batch, steps, 4 * h_size))
        dh = grad_h
        dc = np.zeros((batch, h_size))
        for t in range(steps - 1, -1, -1):
            gi, gf, gg, go, c_prev, tc, h_prev = saved[t]
            do = dh * tc
            dc = dc + dh * go * (1.0 - tc * tc)
            dz = np.concatenate([
                dc * gg * gi * (1.0 - gi),
                dc * c_prev * gf * (1.0 - gf),
                dc * gi * (1.0 - gg * gg),
                do * go * (1.0 - go),
            ], axis=1)
            if need_wh:
                d_wh += h_prev.T @ dz
            if need_b:
                d_b += dz.sum(axis=0)
            d_zx[:, t, :] = dz
            dh = dz @ wh_np.T
            dc = dc * gf
        flat = d_zx.reshape(batch * steps, 4 * h_size)
        d_wx = x_np.reshape(batch * steps, 1).T @ flat if need_wx else None
        d_x = (flat @ wx_np.T).reshape(batch, steps) if need_x else None
        return d_x, d_wx, d_wh, d_b

    return tape.custom_op(h, (x, wx, wh, b), bw)


# requires_grad of (x, wx, wh, b): an attack's input gradient, a training
# step, and both at once (the kernel then runs in both modes)
LSTM_FLAGS = {"frozen_weights": (True, False, False, False),
              "training": (False, True, True, True),
              "all_inputs": (True, True, True, True)}


def lstm_arrays(rng, batch, steps, hidden=md.LSTM_HIDDEN):
    return [rng.uniform(0, 1, size=(batch, steps)),
            rng.normal(size=(1, 4 * hidden)) * 0.5,
            rng.normal(size=(hidden, 4 * hidden)) * 0.1,
            rng.normal(size=(4 * hidden,)) * 0.1]


class TestLeanLstmTape:
    """The lean LSTM tape keeps every bit of the kernel it replaced."""

    @pytest.mark.parametrize("steps", [0, 1, 3, 5, 8, 24])
    @pytest.mark.parametrize("flags", sorted(LSTM_FLAGS))
    def test_bits_match_the_reference_kernel(self, flags, steps):
        rng = np.random.default_rng(steps)
        for batch in list(range(1, 70)) + [96, 130]:
            arrays = lstm_arrays(rng, batch, steps)
            grad_h = rng.normal(size=(batch, md.LSTM_HIDDEN))
            results = []
            for kernel in (tape.lstm_sequence, reference_lstm_sequence):
                out = kernel(*[Tensor(a, requires_grad=f)
                               for a, f in zip(arrays, LSTM_FLAGS[flags])])
                results.append((out.data, out._node.backward_fn(grad_h)))
            (h_lean, grads_lean), (h_ref, grads_ref) = results
            assert np.array_equal(h_lean, h_ref), batch
            for g_lean, g_ref, need in zip(grads_lean, grads_ref, LSTM_FLAGS[flags]):
                assert (g_lean is not None) == (g_ref is not None) == need
                assert g_ref is None or np.array_equal(g_lean, g_ref), batch

    @pytest.mark.parametrize("steps", [6, 24])
    @pytest.mark.parametrize("flags", ["frozen_weights", "all_inputs"])
    def test_matches_finite_differences(self, flags, steps):
        rng = np.random.default_rng(21)
        arrays = lstm_arrays(rng, 3, steps, hidden=6)
        needs = LSTM_FLAGS[flags]
        r = rng.normal(size=(3, 6))

        def f(arrs):
            out = tape.lstm_sequence(*[Tensor(a) for a in arrs + arrays[len(arrs):]])
            return float((out.data * r).mean())

        ts = [Tensor(a, requires_grad=n) for a, n in zip(arrays, needs)]
        out = tape.lstm_sequence(*ts)
        tape.backward(mean(mul(out, Tensor(r))))
        checked = sum(needs)
        assert all(t.grad is None for t in ts[checked:])
        assert_grad_matches(f, arrays[:checked], [t.grad for t in ts[:checked]], rng)

    @pytest.mark.parametrize("want", ["weights", "input"])
    def test_backward_closure_runs_once(self, want):
        # backward overwrites the saved gates with their gradients
        arrays = lstm_arrays(np.random.default_rng(3), 4, 5)
        weights = dict(zip(("lstm.wx", "lstm.wh", "lstm.b"), arrays[1:]))
        h, bw = md.lstm_sequence(arrays[0], weights, want)
        bw(np.ones_like(h))
        with pytest.raises(RuntimeError, match="already run"):
            bw(np.ones_like(h))

    def test_training_epoch_holds_one_tape(self):
        model = LstmClassifier(seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(321, 24))
        y = (rng.uniform(size=321) < 0.3).astype(np.float64)
        train_local(model, x, y, TrainConfig(), seed=0, epoch=0)
        tracemalloc.start()
        try:
            train_local(model, x, y, TrainConfig(), seed=0, epoch=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.3 MiB; 6.5 MiB with a (32, 24, 400) gradient buffer beside the
        # saved gates
        assert peak < 5 * 2**20

    def test_input_gradient_with_frozen_weights_holds_a_small_tape(self):
        model = LstmClassifier(seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(48, 24))
        y = (rng.uniform(size=48) < 0.3).astype(np.float64)
        input_gradient(model, x, y)
        tracemalloc.start()
        try:
            input_gradient(model, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 5.2 MiB; 9.4 MiB with a (48, 24, 400) input product and gradient
        # buffer beside the saved gates
        assert peak < 7 * 2**20

    def test_forward_needing_no_grad_holds_no_tape(self):
        arrays = lstm_arrays(np.random.default_rng(2), 64, 24)
        weights = dict(zip(("lstm.wx", "lstm.wh", "lstm.b"), arrays[1:]))
        tracemalloc.start()
        try:
            h, bw = md.lstm_sequence(arrays[0], weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a tape of 24 steps x 5 arrays x (64, 100) would take 5.9 MiB
        assert peak < 2**20 and bw is None
        assert np.array_equal(h, reference_lstm_sequence(*map(Tensor, arrays)).data)


class TestLeanTransformerTape:
    """What a Transformer training step holds: no array that backward can
    recompute, so no q, k or v, which training's backward re-forms from the
    block input it rebuilds anyway (an attack's rebuilds none and keeps
    them), and no previous step's weight gradients while the tape is built.
    Its backward drops each array after its last reader."""

    @staticmethod
    def batch(rows):
        rng = np.random.default_rng(0)
        return (rng.uniform(0, 1, size=(rows, 24)),
                (rng.uniform(size=rows) < 0.3).astype(np.float64))

    @staticmethod
    def second_call_peak(call):
        """The traced peak of ``call()``'s second run, in bytes."""
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("want", ["weights", "input"])
    def test_backward_closure_runs_once(self, want):
        # backward consumes the arrays the forward saved, block by block
        model = TransformerClassifier(seed=0)
        out, bw = md.transformer_encoder(self.batch(3)[0], model.params, want)
        bw(np.ones_like(out))
        with pytest.raises(RuntimeError, match="already run"):
            bw(np.ones_like(out))

    def test_layer_norm_writes_its_input_gradient_over_g(self):
        rng = np.random.default_rng(4)
        t, g = rng.normal(size=(2, 3, 7, 10))
        gamma = rng.normal(size=10)
        centered, ve, inv = md._layer_norm_stats(t)
        d_t, d_gamma, d_beta = md._layer_norm_grads(g, centered, ve, inv, gamma, True, True)
        g_in = g.copy()
        in_place = md._layer_norm_grads(g, centered, ve, inv, gamma, True, True, out=g)
        assert in_place[0] is g and not np.array_equal(g, g_in)
        for got, want in zip(in_place, (d_t, d_gamma, d_beta)):
            assert np.array_equal(got, want)

    def test_training_step_peaks_low(self):
        model = TransformerClassifier(seed=0)
        x, y = self.batch(32)

        def step():
            probs, steps = model.forward(x, "weights")
            steps.append(focal_loss(probs, y, want="weights")[1])
            ad.backward(steps)

        # 18.1 MiB with v held until d_v was formed, the rebuilt block input
        # through the attention core and each layer norm's input gradient
        # formed beside its output gradient (16.5 MiB measured)
        assert self.second_call_peak(step) < 17.3 * 2**20

    def test_sixteen_row_input_gradient_peaks_low(self):
        model = TransformerClassifier(seed=0)
        x, y = self.batch(16)
        # 13.8 MiB with v held until d_v was formed and each layer norm's
        # input gradient formed beside its output gradient (13.4 MiB measured)
        assert self.second_call_peak(lambda: input_gradient(model, x, y)) < 13.6 * 2**20

    @staticmethod
    def encoder_held(model, x, trains):
        """(shape, dtype) of each array the encoder's closure holds for ``x``,
        for training or for an attack."""
        _, bw = md.transformer_encoder(x, model.params, "weights" if trains else "input")
        return sorted((shape, dtype.name) for shape, dtype, _, _ in tape_inventory(
            [bw], list(model.params.values()) + [md.POSITIONS]))

    def test_training_forward_holds_a_small_tape(self):
        model = TransformerClassifier(seed=0)
        x, y = self.batch(32)
        model.forward(x, "weights")
        tracemalloc.start()
        try:
            probs, steps = model.forward(x, "weights")
            loss, step = focal_loss(probs, y, want="weights")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss)
        # 57.1 MiB with normed saved by every trained-gamma layer norm; 47.7
        # MiB with the layer-norm outputs, merged contexts and ReLU masks
        # that the fused encoder recomputes in backward; 33.1 MiB with the
        # attention weights and ReLU outputs, which it now recomputes too;
        # 24.6 MiB with each block's q, k and v (10.6 MiB measured)
        assert held < 11.5 * 2**20

    def test_training_tape_holds_nothing_backward_can_recompute(self):
        model = TransformerClassifier(seed=0)
        x, y = self.batch(32)
        probs, steps = model.forward(x, "weights")
        steps.append(focal_loss(probs, y, want="weights")[1])
        held = tape_inventory(steps, list(model.params.values()) + [md.POSITIONS])
        width = (32, md.SEQ_LEN, md.D_MODEL)
        # the composed tape's linears held each layer-norm output and merged
        # context, (32, 24, 160) each, for their weight gradients; now only
        # the fused kernels hold anything
        assert {rule for *_, rule in held} == {"transformer_encoder", "sigmoid_head",
                                               "focal_loss"}
        # nor the attention weights or the ReLU output, which backward
        # re-forms from q and k and from the first layer norm's output, nor
        # q, k and v, which it re-forms from the block input
        heads = (32, md.NUM_HEADS, md.SEQ_LEN, md.HEAD_DIM)  # the buffer under the head view
        assert [row for row in held if row[0] in (
            (32 * md.NUM_HEADS, md.SEQ_LEN, md.SEQ_LEN), (32, md.SEQ_LEN, md.FFN_HIDDEN),
            (32 * md.SEQ_LEN, md.FFN_HIDDEN), heads) and row[1] != bool] == []
        # per block the softmax's row max and sum, two layer norms'
        # centered and per-row values and the ReLU mask; the batch, to
        # recompute block 0's input; and the dense head's input, pooled over
        # time, and its ReLU mask
        encoder = sorted((shape, dtype.name) for shape, dtype, _, rule in held
                         if rule == "transformer_encoder")
        assert encoder == sorted(
            [((32 * md.NUM_HEADS, md.SEQ_LEN, 1), "float64")] * 10
            + [(width, "float64")] * 10 + [((32, md.SEQ_LEN, 1), "float64")] * 20
            + [((32, md.SEQ_LEN, md.FFN_HIDDEN), "bool")] * 5
            + [((32, md.SEQ_LEN), "float64")]
            + [((32, md.D_MODEL), "float64"), ((32, md.DENSE_HIDDEN), "bool")])
        # 24.5 MiB in the encoder with q, k and v (10.5 MiB measured)
        assert sum(size for _, _, size, _ in held) < 11 * 2**20

    def test_training_holds_the_attack_arrays_but_q_k_and_v(self):
        model = TransformerClassifier(seed=0)
        x, _ = self.batch(32)
        attack = self.encoder_held(model, x, False)
        heads = ((32, md.NUM_HEADS, md.SEQ_LEN, md.HEAD_DIM), "float64")
        assert attack.count(heads) == 15  # q, k and v of 5 blocks
        # an attack rebuilds no block input, so it keeps q, k and v; only
        # training keeps the pooled block output, which only head.dense.w's
        # gradient reads
        pooled = ((32, md.D_MODEL), "float64")
        assert self.encoder_held(model, x, True) == sorted(
            [a for a in attack if a != heads] + [pooled])

    def test_frozen_weights_hold_composed_tape_minus_attention(self):
        model = TransformerClassifier(seed=0)
        x, _ = self.batch(32)
        params = {k: Tensor(p) for k, p in model.params.items()}
        out = composed_transformer_encoder(Tensor(x, requires_grad=True), params)
        composed = sorted((shape, dtype.name) for shape, dtype, _, _ in tape_inventory(
            tape_rules(out), list(model.params.values()) + [md.POSITIONS]) if shape)
        attention_weights = ((32 * md.NUM_HEADS, md.SEQ_LEN, md.SEQ_LEN), "float64")
        assert composed.count(attention_weights) == 5
        # both hold q, k and v, layer-norm statistics and ReLU masks; the
        # fused encoder re-forms the attention weights in backward from q, k
        # and the softmax's row max and sum, and keeps the batch, for
        # training's sake
        row_stats = [((32 * md.NUM_HEADS, md.SEQ_LEN, 1), "float64")] * 10
        assert self.encoder_held(model, x, False) == sorted(
            [a for a in composed if a != attention_weights] + row_stats
            + [((32, md.SEQ_LEN), "float64")])

    def test_one_client_peaks_low(self):
        model = TransformerClassifier(seed=0)
        x, y = self.batch(64)
        cfg = TrainConfig(epochs=1, batch_size=32)
        peak = self.second_call_peak(lambda: train_local(model, x, y, cfg, seed=0, epoch=1))
        # 73.4 MiB with normed saved and the last step's gradients alive
        # while the next tape is built; 58.2 MiB with softmax's three arrays
        # and the forward's dead locals; 56.6 MiB before the fused encoder;
        # 42.0 MiB with the attention weights and ReLU outputs saved; 34.2
        # MiB with q, k and v saved; 24.0 MiB with backward's arrays held
        # past their last readers (22.4 MiB measured)
        assert peak < 23.2 * 2**20

    def test_forward_never_sees_a_weight_gradient(self, model, monkeypatch):
        x, y = self.batch(10)
        grads, seen = [], []
        forward, step = model.forward, RmsProp.step

        def spy(batch, want=None):
            seen.append(sum(alive() is not None for alive in grads))
            return forward(batch, want)

        def spy_step(self, params, found, lr):
            grads.extend(weakref.ref(g) for g in found.values())
            return step(self, params, found, lr)

        monkeypatch.setattr(model, "forward", spy)
        monkeypatch.setattr(RmsProp, "step", spy_step)
        train_epochs(model, x, y, TrainConfig(epochs=2, batch_size=4), seed=0)
        # no weight gradient of an earlier step is alive; each step had all
        assert seen == [0] * 6
        assert len(grads) == 6 * len(model.params)


class TestNoDeadIntermediates:
    """The Transformer drops each intermediate after its last reader, and
    softmax works in one array, with the bits of the composed forms."""

    batch = staticmethod(TestLeanTransformerTape.batch)

    def test_input_gradient_peaks_low(self):
        model = TransformerClassifier(seed=0)
        x, y = self.batch(32)
        input_gradient(model, x, y)
        tracemalloc.start()
        try:
            input_gradient(model, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 35.5 MiB with softmax's three arrays, the bound scaled scores and
        # each block's input and sublayer output alive inside layer norm;
        # 32.6 MiB with the attention weights saved; 27.5 MiB with v and each
        # layer norm's output gradient held past their last readers (26.9
        # MiB measured)
        assert peak < 28 * 2**20

    def test_predict_proba_holds_no_tape(self, monkeypatch):
        monkeypatch.setattr(md, "_workers", lambda: 1)  # two 32-row blocks
        model = TransformerClassifier(seed=0)
        x, _ = self.batch(64)
        predict_proba(model, x)
        tracemalloc.start()
        try:
            predict_proba(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 64-row forward that records weight gradients peaks at 98.8 MiB;
        # two 32-row blocks that save nothing peak at 5.04 MiB
        assert peak < 5.5 * 2**20

    def test_training_forward_peaks_low(self):
        model = TransformerClassifier(seed=0)
        x, y = self.batch(32)
        model.forward(x, "weights")
        tracemalloc.start()
        try:
            probs, steps = model.forward(x, "weights")
            loss, step = focal_loss(probs, y, want="weights")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss)
        # 52.3 MiB with the same dead intermediates alive; 49.5 MiB before
        # the fused encoder; 34.8 MiB with the attention weights and ReLU
        # outputs saved; 26.5 MiB with q, k and v saved (13.4 MiB measured)
        assert peak < 14.5 * 2**20

    @settings(max_examples=200, deadline=None)
    @example(x=np.array([[[1e308, -1e308, 5.0], [-7e300, -7e300, -7e300],
                          [800.0, -800.0, 1e-300]]]), axis=-1, seed=0)
    @given(x=hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 5),
                                               st.integers(1, 9)),
                        elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                           st.floats(-50.0, 50.0))),
           axis=st.sampled_from([0, 1, -1]), seed=st.integers(0, 2**31 - 1))
    def test_softmax_keeps_the_bits_of_the_composed_form(self, x, axis, seed):
        g = np.random.default_rng(seed).normal(size=x.shape) * 10.0
        with np.errstate(over="ignore"):  # x - max overflows to -inf for rows of huge spread
            e = np.exp(x - x.max(axis=axis, keepdims=True))
            want = e / e.sum(axis=axis, keepdims=True)
            out = softmax(Tensor(x, requires_grad=True), axis=axis)
        assert out.data.tobytes() == want.tobytes()
        inner = (g * want).sum(axis=axis, keepdims=True)
        (d_x,) = out._node.backward_fn(g)
        assert d_x.tobytes() == (want * (g - inner)).tobytes()


class TestFusedEncoderIsBitExact:
    """``md.transformer_encoder`` reproduces the composed tape, through the
    mean over time and the dense head's ReLU, bit for bit: its output and
    every gradient, in each mode of use."""

    # which weights need a gradient; the input does in the frozen-weights
    # (attack) and every-input modes
    TRAINS = {"training": lambda name: True,
              "frozen_weights": lambda name: False,
              "every_input": lambda name: True,
              "some_weights": lambda name: name.endswith((".wq", ".ob", "ln1.gamma", "ffn.b2",
                                                          "dense.b")),
              "dense_head_only": lambda name: name.startswith("head.dense.")}

    @pytest.mark.parametrize("batch", [1, 3, 5, 17, 32])
    @pytest.mark.parametrize("mode", TRAINS)
    def test_matches_the_composed_tape(self, mode, batch):
        model = TransformerClassifier(seed=3)
        rng = np.random.default_rng(batch)
        x = rng.uniform(0, 1, size=(batch, md.SEQ_LEN))
        r = rng.normal(size=(batch, md.DENSE_HIDDEN))
        trains = self.TRAINS[mode]
        need_x = mode in ("frozen_weights", "every_input")

        def run(encoder):
            params = {k: Tensor(p, requires_grad=trains(k)) for k, p in model.params.items()}
            xt = Tensor(x, requires_grad=need_x)
            out = encoder(xt, params)
            tape.backward(mean(mul(out, Tensor(r))))
            return out.data, xt.grad, {k: p.grad for k, p in params.items()}

        (out_f, dx_f, dw_f) = run(tape.transformer_encoder)
        (out_c, dx_c, dw_c) = run(composed_transformer_encoder)
        assert np.array_equal(out_f, out_c)
        assert (dx_f is not None) == (dx_c is not None) == need_x
        assert dx_c is None or np.array_equal(dx_f, dx_c)
        trained = [k for k in model.params if trains(k) and not k.startswith("head.out.")]
        assert [k for k in dw_c if dw_c[k] is not None] == trained
        assert [k for k in dw_f if dw_f[k] is not None] == trained
        assert [k for k in trained if not np.array_equal(dw_f[k], dw_c[k])] == []


class TestModelGradients:
    """Weight gradients, and the input gradient with frozen weights, of each
    model against the finite-difference oracle."""

    @pytest.mark.parametrize("name,picked", [
        ("lstm", ["lstm.wx", "lstm.wh", "lstm.b", "head.w", "head.b"]),
        # every weight kind of the encoder, spread over its blocks
        ("transformer", ["emb.w", "emb.b", "blk0.attn.wq", "blk0.attn.qb",
                         "blk1.attn.wk", "blk1.attn.kb", "blk2.attn.wv", "blk2.attn.vb",
                         "blk3.attn.wo", "blk3.attn.ob", "blk4.ln1.gamma", "blk0.ln1.beta",
                         "blk2.ffn.w1", "blk3.ffn.b1", "blk4.ffn.w2", "blk1.ffn.b2",
                         "blk4.ln2.gamma", "blk2.ln2.beta", "head.dense.w", "head.dense.b",
                         "head.out.w", "head.out.b"]),
    ])
    def test_weight_gradients(self, name, picked):
        rng = np.random.default_rng(9)
        model = make_model(name, seed=9)
        x = rng.uniform(0, 1, size=(2, 24))
        y = np.array([1.0, 0.0])
        arrays = [model.params[k].copy() for k in picked]

        def f(arrs):
            for k, a in zip(picked, arrs):
                model.params[k] = a
            val = focal_loss(model.forward(x)[0], y)[0]
            for k, a in zip(picked, arrays):
                model.params[k] = a
            return val

        grads = loss_and_grads(model, x, y)[2]
        analytic = [grads[k] for k in picked]
        assert_grad_matches(f, arrays, analytic, rng, coords_per_array=5)
        # and the input gradient, which asks for no weight gradient
        assert_grad_matches(lambda arrs: focal_loss(model.forward(arrs[0])[0], y)[0],
                            [x], [input_gradient(model, x, y)], rng, coords_per_array=12)


# float64 bit patterns: any at all, plus -0.0, +-inf, quiet, signalling and
# negative NaNs, and the smallest and largest subnormals
_FLOAT_BITS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([
    0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
    0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, 0x0000000000000001, 0x000FFFFFFFFFFFFF]))
WEIGHT_MAPS = st.dictionaries(
    st.text(max_size=20),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4).flatmap(
        lambda shape: hnp.arrays("<u8", shape, elements=_FLOAT_BITS).map(
            lambda bits: bits.view("<f8"))),
    max_size=3)


class TestCheckpoints:
    @settings(max_examples=100, deadline=None)
    @given(weights=WEIGHT_MAPS)
    def test_any_weight_map_roundtrips_bit_for_bit(self, weights):
        restored = md.weights_from_bytes(md.weights_to_bytes(weights))
        assert sorted(restored) == sorted(weights)
        for name, arr in weights.items():
            assert restored[name].dtype == np.float64
            assert restored[name].shape == arr.shape
            assert restored[name].tobytes() == arr.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(weights=WEIGHT_MAPS, tail=st.binary(min_size=1, max_size=16))
    def test_any_prefix_or_padding_rejected(self, weights, tail):
        blob = md.weights_to_bytes(weights)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                md.weights_from_bytes(blob[:cut])
        with pytest.raises(ValueError, match="trailing bytes"):
            md.weights_from_bytes(blob + tail)

    def test_bytes_roundtrip(self, model):
        w = model.get_weights()
        restored = md.weights_from_bytes(md.weights_to_bytes(w))
        assert set(restored) == set(w)
        assert all(np.array_equal(restored[k], w[k]) for k in w)

    def test_file_roundtrip(self, tmp_path, model):
        w = model.get_weights()
        path = tmp_path / "ckpt.bin"
        md.save_weights(w, path)
        restored = md.load_weights(path)
        assert all(np.array_equal(restored[k], w[k]) for k in w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_checkpoint_rejected(self, tmp_path, bad):
        path = tmp_path / "ckpt.bin"
        md.save_weights({"a": np.zeros(3), "b": np.array([[1.0, bad]])}, path)
        with pytest.raises(ValueError, match="tensor 'b' holds a non-finite value"):
            md.load_weights(path)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            md.weights_from_bytes(b"NOPE" + b"\x00" * 16)

    def test_trailing_bytes_rejected(self, model):
        blob = md.weights_to_bytes(model.get_weights())
        with pytest.raises(ValueError, match="checkpoint: 1 trailing bytes"):
            md.weights_from_bytes(blob + b"\x00")

    def test_every_truncation_rejected(self):
        blob = md.weights_to_bytes({"a": np.arange(6.0).reshape(2, 3), "b": np.array(1.5)})
        for cut in range(4, len(blob)):
            with pytest.raises(ValueError, match="truncated weight checkpoint"):
                md.weights_from_bytes(blob[:cut])

    def test_duplicate_and_undecodable_names_rejected(self):
        one = md.weights_to_bytes({"a": np.array(1.0)})
        body = one[12:]
        doubled = one[:8] + (2).to_bytes(4, "little") + body + body
        with pytest.raises(ValueError, match="duplicate tensor 'a'"):
            md.weights_from_bytes(doubled)
        bad_name = one[:14] + b"\xff" + one[15:]
        with pytest.raises(ValueError, match="not UTF-8"):
            md.weights_from_bytes(bad_name)

    def test_same_format_across_architectures(self):
        blob_a = md.weights_to_bytes(LstmClassifier(seed=0).get_weights())
        blob_b = md.weights_to_bytes(TransformerClassifier(seed=0).get_weights())
        assert blob_a[:4] == blob_b[:4] == b"FMWT"

    def test_set_weights_rejects_mismatch(self, model):
        w = model.get_weights()
        w.pop(sorted(w)[0])
        with pytest.raises(ValueError, match="names"):
            model.set_weights(w)

    def test_set_weights_gives_every_parameter_a_new_array(self, model):
        # a round folds a trained model's own parameter arrays, and
        # that worker's next client starts with set_weights: the arrays
        # already handed over must never change afterwards
        handed = model.params
        values = {name: arr.copy() for name, arr in handed.items()}
        broadcast = type(model)(seed=5).get_weights()
        model.set_weights(broadcast)
        assert [n for n in handed if not np.array_equal(handed[n], values[n])] == []
        assert [n for n, p in model.params.items() if p is handed[n]] == []
        assert [n for n, p in model.params.items() if p is broadcast[n]] == []
        x = small_batch(seed=2, n=8)
        train_epochs(model, x, (x[:, 0] > 0.5).astype(np.float64),
                     TrainConfig(epochs=2, batch_size=4), seed=0)
        # training moved every parameter, and none of the arrays handed over
        assert [n for n, p in model.params.items() if np.array_equal(p, broadcast[n])] == []
        assert [n for n in handed if not np.array_equal(handed[n], values[n])] == []
        # and the broadcast map, which every client of the round starts from
        start = type(model)(seed=5).get_weights()
        assert [n for n in start if not np.array_equal(broadcast[n], start[n])] == []
        assert [n for n, p in model.params.items() if p is handed[n]] == []
