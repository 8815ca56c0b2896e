import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmeter import autodiff as ad
from fedmeter.autodiff import Tensor
from fedmeter.models import layer_norm, linear, lstm_sequence

from gradcheck import assert_grad_matches


def scalar_loss(t):
    # sum of squares via primitives only, reduced with mean * size
    sq = ad.mul(t, t)
    return ad.mul(ad.mean(sq), ad.Tensor(float(sq.data.size)))


class TestForwardPrimitives:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        out = ad.matmul(a, eye)
        np.testing.assert_array_equal(out.data, a.data)

    def test_sigmoid_zero_is_half(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([2.5, 2.5, 2.5]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 7)) * 10)
        out = ad.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_shape_mismatch_names_primitive_and_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ad.ShapeError, match=r"add.*\(2,\).*\(3,\)"):
            ad.add(Tensor(np.ones(2)), Tensor(np.ones(3)))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor([1.0, np.inf])
        with pytest.raises(ValueError, match="finite"):
            Tensor([np.nan])

    def test_log_of_nonpositive_raises(self):
        with pytest.raises(ValueError, match="log"):
            ad.log(Tensor([1.0, 0.0]))
        with pytest.raises(ValueError, match="log"):
            ad.log(Tensor([-1.0]))

    def test_trailing_bias_broadcast(self):
        x = Tensor(np.zeros((5, 3)))
        b = Tensor([1.0, 2.0, 3.0])
        out = ad.add(x, b)
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_disallowed_broadcast_rejected(self):
        # keepdims-style (5,1) against (5,3) must go through broadcast_to
        with pytest.raises(ad.ShapeError):
            ad.add(Tensor(np.ones((5, 3))), Tensor(np.ones((5, 1))))

class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.backward(scalar_loss(x))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)

    def test_sigmoid_at_zero_weight(self):
        # d/dw sigmoid(w.x) at w=0 is 0.25 * x
        x_val = np.array([[0.7, -1.3, 2.0]])
        w = Tensor(np.zeros((3, 1)), requires_grad=True)
        out = ad.sigmoid(ad.matmul(Tensor(x_val), w))
        ad.backward(ad.mean(out))
        np.testing.assert_allclose(w.grad[:, 0], 0.25 * x_val[0], rtol=1e-12)

    def test_grad_of_multiply_used_tensor_sums(self):
        x = Tensor([3.0], requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x -> 2x + 1 = 7
        ad.backward(ad.mean(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(x, x))

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError, match="tape"):
            ad.backward(Tensor(1.0, requires_grad=True))

    def test_second_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.mean(ad.mul(x, x))
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            ad.backward(loss)

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y._node is None and not y.requires_grad

    def test_no_grad_acts_on_its_own_thread_only(self):
        # one thread holds no_grad open while the other records and replays
        # a tape, in both directions
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def hold_no_grad():
            with ad.no_grad():
                entered.set()
                release.wait(10)
                seen["inside"] = ad.mul(Tensor([1.0], requires_grad=True),
                                        Tensor(2.0)).requires_grad

        def record_tape():
            x = Tensor([3.0], requires_grad=True)
            ad.backward(ad.mean(ad.mul(x, x)))
            seen["grad"] = x.grad

        holder = threading.Thread(target=hold_no_grad)
        holder.start()
        assert entered.wait(10)
        record_tape()  # this thread records while the other is in no_grad
        release.set()
        holder.join(10)
        assert not holder.is_alive()
        assert seen["inside"] is False
        np.testing.assert_array_equal(seen["grad"], [6.0])

        seen.clear()
        with ad.no_grad():
            recorder = threading.Thread(target=record_tape)
            recorder.start()
            recorder.join(10)
        assert not recorder.is_alive()
        np.testing.assert_array_equal(seen["grad"], [6.0])

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=5)
        a, b = 2.5, -1.25

        def grad_of(coeff1, coeff2):
            x = Tensor(base, requires_grad=True)
            l1 = ad.mean(ad.mul(x, x))
            l2 = ad.mean(ad.sigmoid(x))
            ad.backward(ad.add(ad.mul(l1, Tensor(coeff1)), ad.mul(l2, Tensor(coeff2))))
            return x.grad

        combined = grad_of(a, b)
        g1 = grad_of(1.0, 0.0)
        g2 = grad_of(0.0, 1.0)
        np.testing.assert_allclose(combined, a * g1 + b * g2, rtol=1e-12, atol=1e-15)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            out = ad.softmax(ad.sigmoid(ad.matmul(x, w)), axis=-1)
            ad.backward(ad.mean(out))
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for f, s in zip(first, second):
            assert np.array_equal(f, s)


# gradient check of every primitive against central finite differences
def _run(op_name, arrays_np):
    """Forward graph for one named primitive; returns scalar loss float."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays_np]
    out = _apply(op_name, tensors)
    # squash to a scalar via mean of a squeeze-free transform
    loss = ad.mean(ad.mul(out, out))
    return tensors, loss


def _apply(op_name, ts):
    if op_name == "add":
        return ad.add(ts[0], ts[1])
    if op_name == "sub":
        return ad.sub(ts[0], ts[1])
    if op_name == "mul":
        return ad.mul(ts[0], ts[1])
    if op_name == "matmul":
        return ad.matmul(ts[0], ts[1])
    if op_name == "matmul3d":
        return ad.matmul(ts[0], ts[1])
    if op_name == "matmul3d2d":
        return ad.matmul(ts[0], ts[1])
    if op_name == "sigmoid":
        return ad.sigmoid(ts[0])
    if op_name == "relu":
        return ad.relu(ts[0])
    if op_name == "log":
        return ad.log(ts[0])
    if op_name == "power":
        return ad.power(ts[0], 1.7)
    if op_name == "softmax":
        return ad.softmax(ts[0], axis=-1)
    if op_name == "mean_axis":
        return ad.mean(ts[0], axis=1, keepdims=True)
    if op_name == "reshape":
        return ad.reshape(ts[0], (6, 2))
    if op_name == "transpose":
        return ad.transpose(ts[0], (1, 0, 2))
    if op_name == "broadcast_to":
        return ad.broadcast_to(ts[0], (3, 4, 5))
    if op_name == "bias_add":
        return ad.add(ts[0], ts[1])
    if op_name == "scalar_mul":
        return ad.mul(ts[0], ts[1])
    raise AssertionError(op_name)


PRIMITIVE_CASES = [
    ("add", [(3, 4), (3, 4)], None),
    ("sub", [(3, 4), (3, 4)], None),
    ("mul", [(3, 4), (3, 4)], None),
    ("bias_add", [(5, 2, 3), (3,)], None),
    ("scalar_mul", [(4, 4), ()], None),
    ("matmul", [(3, 4), (4, 2)], None),
    ("matmul3d", [(2, 3, 4), (2, 4, 5)], None),
    ("matmul3d2d", [(2, 3, 4), (4, 5)], None),
    ("sigmoid", [(3, 5)], None),
    ("relu", [(3, 5)], "offset"),  # keep values away from the kink
    ("log", [(3, 5)], "positive"),
    ("power", [(3, 5)], "positive"),
    ("softmax", [(3, 5)], None),
    ("mean_axis", [(3, 5)], None),
    ("reshape", [(3, 4)], None),
    ("transpose", [(2, 3, 4)], None),
    ("broadcast_to", [(3, 5)], None),
]


@pytest.mark.parametrize("op_name,shapes,domain", PRIMITIVE_CASES,
                         ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(op_name, shapes, domain):
    rng = np.random.default_rng(hash(op_name) % (2**31))
    if op_name == "broadcast_to":
        arrays_np = [rng.normal(size=(3, 1, 5))]
    else:
        arrays_np = [rng.normal(size=s) for s in shapes]
    if domain == "positive":
        arrays_np = [np.abs(a) + 0.5 for a in arrays_np]
    elif domain == "offset":
        arrays_np = [a + np.sign(a) * 0.2 for a in arrays_np]

    def f(arrs):
        ts = [Tensor(a) for a in arrs]
        out = _apply(op_name, ts)
        return float((out.data * out.data).mean())

    tensors = [Tensor(a, requires_grad=True) for a in arrays_np]
    out = _apply(op_name, tensors)
    ad.backward(ad.mean(ad.mul(out, out)))
    assert_grad_matches(f, arrays_np, [t.grad for t in tensors], rng)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_outputs_and_grads_stay_finite(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 4)) * 5, requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    out = ad.softmax(ad.matmul(ad.sigmoid(x), w), axis=-1)
    assert np.all(np.isfinite(out.data))
    ad.backward(ad.mean(ad.mul(out, out)))
    assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(w.grad))


class TestRecordTimeGradients:
    """Nodes save only what the gradients requested at record time read."""

    @pytest.mark.parametrize("shapes", [((4, 3), (3, 2)), ((2, 4, 3), (3, 2)),
                                        ((2, 4, 3), (2, 3, 5))],
                             ids=["2d", "3d@2d", "3d@3d"])
    def test_frozen_matmul_frees_the_other_operand(self, shapes):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=shapes[0]), requires_grad=True)
        w = Tensor(rng.normal(size=shapes[1]))
        h = ad.add(x, x)
        alive = weakref.ref(h.data)
        out = ad.matmul(h, w)
        del h
        assert alive() is None
        ad.backward(ad.mean(out))
        g = np.full(out.shape, 1.0 / out.data.size)
        np.testing.assert_allclose(x.grad, 2.0 * np.matmul(g, np.swapaxes(w.data, -1, -2)),
                                   rtol=1e-12)

    @pytest.mark.parametrize("const", [2.5, np.arange(1.0, 4.0)], ids=["scalar", "suffix"])
    def test_mul_by_constant_frees_the_tracked_operand(self, const):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        h = ad.add(x, x)
        alive = weakref.ref(h.data)
        out = ad.mul(h, Tensor(const))
        del h
        assert alive() is None
        ad.backward(ad.mean(out))
        np.testing.assert_allclose(x.grad, np.broadcast_to(2.0 * const / 6.0, (2, 3)),
                                   rtol=1e-12)

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.matmul],
                             ids=["add", "sub", "mul", "matmul"])
    @pytest.mark.parametrize("needs", [(True, False), (False, True), (True, True)])
    def test_rule_returns_none_for_unrequested_inputs(self, op, needs):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=needs[0])
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=needs[1])
        grads = op(a, b)._node.backward_fn(np.ones((3, 3)))
        assert [g is not None for g in grads] == list(needs)


def test_lstm_sequence_input_gradient_with_frozen_weights():
    rng = np.random.default_rng(13)
    hidden, batch, steps = 5, 3, 6
    x_np = rng.normal(size=(batch, steps))
    weights = [Tensor(rng.normal(size=(1, 4 * hidden)) * 0.5),
               Tensor(rng.normal(size=(hidden, 4 * hidden)) * 0.3),
               Tensor(rng.normal(size=(4 * hidden,)) * 0.1)]

    def f(arrs):
        h = lstm_sequence(Tensor(arrs[0]), *weights)
        return float((h.data * h.data).mean())

    x = Tensor(x_np, requires_grad=True)
    h = lstm_sequence(x, *weights)
    assert h._node.backward_fn(np.ones((batch, hidden)))[1:] == (None, None, None)
    ad.backward(ad.mean(ad.mul(h, h)))
    assert all(w.grad is None for w in weights)
    assert_grad_matches(f, [x_np], [x.grad], rng)


FUSED_CASES = {
    "layer_norm": (layer_norm, [(3, 4, 6), (6,), (6,)]),
    "linear_3d": (linear, [(3, 4, 5), (5, 2), (2,)]),
    "linear_2d": (linear, [(4, 5), (5, 2), (2,)]),
}


@pytest.mark.parametrize("frozen", [False, True], ids=["all_inputs", "frozen_weights"])
@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_fused_model_kernels_match_finite_differences(case, frozen):
    op, shapes = FUSED_CASES[case]
    rng = np.random.default_rng(17)
    arrays_np = [rng.normal(size=s) for s in shapes]
    r = rng.normal(size=op(*[Tensor(a) for a in arrays_np]).shape)
    checked = 1 if frozen else len(arrays_np)

    def f(arrs):
        out = op(*[Tensor(a) for a in arrs + arrays_np[len(arrs):]])
        return float((out.data * r).mean())

    tensors = [Tensor(a, requires_grad=i < checked) for i, a in enumerate(arrays_np)]
    out = op(*tensors)
    assert [g is not None for g in out._node.backward_fn(r)] == [i < checked for i in range(3)]
    ad.backward(ad.mean(ad.mul(out, Tensor(r))))
    assert all(t.grad is None for t in tensors[checked:])
    assert_grad_matches(f, arrays_np[:checked], [t.grad for t in tensors[:checked]], rng)


@pytest.mark.parametrize("op,shapes", [
    (layer_norm, [(2, 3, 4), (3,), (4,)]),
    (linear, [(2, 3, 4), (5, 2), (2,)]),
    (linear, [(2, 3, 4), (4, 2), (3,)]),
], ids=["layer_norm_gain", "linear_inner", "linear_bias"])
def test_fused_model_kernels_reject_mismatched_shapes(op, shapes):
    with pytest.raises(ad.ShapeError, match=op.__name__):
        op(*[Tensor(np.ones(s)) for s in shapes])


# ---------------------------------------------------------------------------
# heap policy: freed tape memory stays in the heap (glibc only)

def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


needs_glibc = pytest.mark.skipif(not (sys.platform.startswith("linux") and _on_glibc()),
                                 reason="the heap policy is set on Linux with glibc only")

# Three warm-up calls, then the mean minor faults of three more, and the flag.
_FAULTS_PER_CALL = """
import resource
import numpy as np
from fedmeter import autodiff, models
model = models.make_model("transformer", seed=0)
rng = np.random.default_rng(0)
x = rng.random((64, models.SEQ_LEN))
y = (rng.random(64) < 0.2).astype(np.float64)
for _ in range(3):
    models.input_gradient(model, x, y)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    models.input_gradient(model, x, y)
print(autodiff._HEAP_RETAINED, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


def _run_fresh(code: str, **env) -> list[str]:
    """Run ``code`` in a fresh interpreter without MALLOC_* variables; its output words."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child_env["OPENBLAS_NUM_THREADS"] = "1"
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class _MalloptSpy:
    """Stands in for ``ctypes.CDLL`` and records every ``mallopt`` call."""

    def __init__(self):
        self.calls = []
        self.accept = True

        def mallopt(param, value):
            self.calls.append((param, value))
            return int(self.accept)

        self.mallopt = mallopt

    def __call__(self, _name):
        return self


@pytest.fixture
def mallopt_spy(monkeypatch):
    """A ``mallopt`` spy, with no MALLOC_* variable set."""
    import ctypes
    spy = _MalloptSpy()
    monkeypatch.setattr(ctypes, "CDLL", spy)
    for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_"):
        monkeypatch.delenv(var, raising=False)
    return spy


class TestHeapPolicy:
    @needs_glibc
    def test_transformer_input_gradient_does_not_refault_its_tape(self):
        # without the policy a 64-row call takes 7,000-20,000 minor faults
        retained, faults = _run_fresh(_FAULTS_PER_CALL)
        assert retained == "True"
        assert float(faults) < 1000

    @needs_glibc
    def test_user_malloc_setting_is_left_alone(self, monkeypatch, mallopt_spy):
        flag = _run_fresh("from fedmeter import autodiff; print(autodiff._HEAP_RETAINED)",
                          MALLOC_TRIM_THRESHOLD_="1048576")
        assert flag == ["False"]
        monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "1048576")
        assert ad._retain_freed_memory() is False
        assert mallopt_spy.calls == []

    def test_no_op_without_glibc(self, monkeypatch, mallopt_spy):
        def not_glibc(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "confstr", not_glibc, raising=False)
        assert ad._retain_freed_memory() is False
        assert mallopt_spy.calls == []

    @pytest.mark.parametrize("accept", [True, False])
    def test_trim_threshold_only_after_the_mmap_threshold(self, monkeypatch, mallopt_spy,
                                                          accept):
        mallopt_spy.accept = accept
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
        assert ad._retain_freed_memory() is accept
        # M_MMAP_THRESHOLD (-3) first; M_TRIM_THRESHOLD (-1) only if glibc took it
        assert mallopt_spy.calls == [(-3, 32 << 20), (-1, 256 << 20)][:2 if accept else 1]
