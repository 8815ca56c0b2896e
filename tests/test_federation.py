import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from fedmeter import attacks as atk
from fedmeter import federation as fed
from fedmeter import models as md
from fedmeter.attacks import AttackSpec
from fedmeter.evaluation import classify, compute_metrics
from fedmeter.federation import ClientNode, fedavg, init_state
from fedmeter.models import (RmsProp, TrainConfig, make_model, train_local,
                             weights_from_bytes)
from fedmeter.seeding import derive_seed


def toy_client_data(seed, n=24):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack([rng.uniform(0.0, 0.08, size=(half, 24)),
                   rng.uniform(0.92, 1.0, size=(half, 24))])
    y = np.concatenate([np.zeros(half), np.ones(half)])
    return x, y


def make_clients(k, malicious_ids=(), attack=None, n=24, poison_fraction=0.3):
    clients = []
    for i in range(k):
        x, y = toy_client_data(seed=100 + i, n=n)
        mal = i in malicious_ids
        clients.append(ClientNode(
            f"c{i}", x, y, malicious=mal,
            attack=attack if (mal and attack) else AttackSpec(),
            poison_fraction=poison_fraction))
    return clients


CFG = TrainConfig(epochs=1, batch_size=16)


class TestClientNode:
    def test_honest_client_cannot_attack(self):
        x, y = toy_client_data(0)
        with pytest.raises(ValueError, match="honest"):
            ClientNode("c0", x, y, malicious=False, attack=AttackSpec(family="fgsm"))


class TestFedavg:
    def test_single_identity(self):
        w = {"a": np.array([1.0, 2.0])}
        out = fedavg([w])
        np.testing.assert_array_equal(out["a"], w["a"])

    def test_average_of_identical(self):
        w = {"a": np.array([[1.0, -2.0]])}
        out = fedavg([w, {k: v.copy() for k, v in w.items()}])
        np.testing.assert_array_equal(out["a"], w["a"])

    def test_opposite_weights_cancel(self):
        w = {"a": np.array([3.0, -1.0])}
        neg = {"a": -w["a"]}
        np.testing.assert_array_equal(fedavg([w, neg])["a"], np.zeros(2))

    def test_arithmetic(self):
        maps = [{"a": np.array([2.0])}, {"a": np.array([4.0])}, {"a": np.array([6.0])}]
        assert fedavg(maps)["a"][0] == 4.0

    def test_linearity_under_scaling(self):
        rng = np.random.default_rng(0)
        maps = [{"a": rng.normal(size=(3, 2))} for _ in range(4)]
        scaled = [{"a": 2.5 * m["a"]} for m in maps]
        np.testing.assert_allclose(fedavg(scaled)["a"], 2.5 * fedavg(maps)["a"],
                                   atol=1e-12, rtol=0)

    def test_name_mismatch(self):
        with pytest.raises(ValueError, match="^weight maps disagree on tensor names$"):
            fedavg([{"a": np.zeros(2)}, {"b": np.zeros(2)}])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError,
                           match=re.escape("weight a: inconsistent shapes [(2,), (3,)]")):
            fedavg([{"a": np.zeros(2)}, {"a": np.zeros(3)}])
        with pytest.raises(ValueError,
                           match=re.escape("weight b: inconsistent shapes [(), (1,)]")):
            fedavg([{"b": np.zeros(1)}, {"b": np.zeros(1)}, {"b": np.zeros(())}])

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            fedavg(iter([]))

    @pytest.mark.parametrize("model_name", ["lstm", "transformer"])
    def test_fold_equals_np_mean_bitwise(self, model_name):
        # 19 maps, as in the paper's rounds; size-1 shapes are the ones a
        # running sum gets wrong, since numpy sums them pairwise
        rng = np.random.default_rng(19)
        shapes = {name: w.shape for name, w in make_model(model_name).get_weights().items()}
        shapes.update({"0d": (), "1": (1,), "1x1": (1, 1), "1x3": (1, 3)})
        maps = [{name: rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
                 for name, shape in shapes.items()} for _ in range(19)]
        out = fedavg(m for m in maps)  # consumed one map at a time
        assert set(out) == set(shapes)
        for name, shape in shapes.items():
            expected = np.mean([m[name] for m in maps], axis=0)
            assert np.shape(out[name]) == shape
            assert np.array_equal(out[name], expected), name

    def test_each_map_is_let_go_before_the_next_is_made(self):
        refs, dead = [], []

        def make(i):
            m = {"a": np.full(3, float(i)), "b": np.full((2, 2), -float(i))}
            refs.append([weakref.ref(arr) for arr in m.values()])
            return m

        def maps():
            for i in range(4):
                if refs:
                    dead.append(all(r() is None for r in refs[-1]))
                yield make(i)

        out = fedavg(maps())
        assert dead == [True] * 3
        np.testing.assert_array_equal(out["a"], np.full(3, 1.5))


class TestRoundMechanics:
    def test_identical_clients_average_to_member(self):
        # same data and same id => identical local results; mean == member
        # (bitwise for two clients; 1e-12 for three, where x/3*3 rounds)
        x, y = toy_client_data(0)
        for twins, exact in ((2, True), (3, False)):
            clients = [ClientNode("twin", x.copy(), y.copy()) for _ in range(twins)]
            state = init_state("lstm", clients, seed=1)
            fed.run_round(state, "lstm", CFG)

            solo = init_state("lstm", [ClientNode("twin", x.copy(), y.copy())], seed=1)
            fed.run_round(solo, "lstm", CFG)
            for name in state.global_weights:
                if exact:
                    np.testing.assert_array_equal(state.global_weights[name],
                                                  solo.global_weights[name])
                else:
                    np.testing.assert_allclose(state.global_weights[name],
                                               solo.global_weights[name],
                                               rtol=1e-12, atol=1e-15)

    def test_single_client_equals_sequential_local_training(self):
        x, y = toy_client_data(3)
        state = init_state("lstm", [ClientNode("c0", x, y)], seed=9)
        start = {k: v.copy() for k, v in state.global_weights.items()}
        fed.run_federation(state, "lstm", replace(CFG, epochs=3))

        model = make_model("lstm", seed=0)
        model.set_weights(start)
        for t in (1, 2, 3):
            train_local(model, x, y, CFG, seed=derive_seed(9, "train", "c0", t), epoch=t)
        ref = model.get_weights()
        for name, arr in state.global_weights.items():
            np.testing.assert_array_equal(arr, ref[name])

    def test_one_model_per_round_matches_fresh_model_per_client(self, monkeypatch):
        clients = make_clients(3, malicious_ids=(1,),
                               attack=AttackSpec(family="pgd", epsilon=0.2, pgd_iters=2))
        state = init_state("lstm", clients, seed=6)
        start = {k: v.copy() for k, v in state.global_weights.items()}
        built = []

        def counting_make_model(*args, **kwargs):
            built.append(args)
            return make_model(*args, **kwargs)

        monkeypatch.setattr(fed, "make_model", counting_make_model)
        force_workers(monkeypatch, 1)  # one model per worker; two workers are covered below
        fed.run_round(state, "lstm", CFG)
        assert len(built) == 1

        returned = []
        for client in clients:
            model = make_model("lstm", seed=0)
            model.set_weights(start)
            x, y = client.x_train, client.y_train
            if client.malicious:
                x, y = fed.poisoned_training_set(model, client, 1, 6, CFG)
            train_local(model, x, y, CFG, seed=derive_seed(6, "train", client.client_id, 1),
                        epoch=1)
            returned.append(model.get_weights())
        expected = fedavg(returned)
        for name, arr in state.global_weights.items():
            np.testing.assert_array_equal(arr, expected[name])

    def test_broadcast_decoded_once_per_round(self, monkeypatch):
        decoded = []

        def counting_decode(blob):
            decoded.append(len(blob))
            return weights_from_bytes(blob)

        monkeypatch.setattr(fed, "weights_from_bytes", counting_decode)
        state = init_state("lstm", make_clients(3), seed=6)
        fed.run_federation(state, "lstm", replace(CFG, epochs=2))
        assert len(decoded) == 2

    def test_honest_data_untouched(self):
        clients = make_clients(3, malicious_ids=(1,),
                               attack=AttackSpec(family="fgsm", epsilon=0.4))
        snapshots = [(c.x_train.copy(), c.y_train.copy()) for c in clients]
        state = init_state("lstm", clients, seed=2)
        fed.run_federation(state, "lstm", replace(CFG, epochs=2))
        for client, (xs, ys) in zip(clients, snapshots):
            assert np.array_equal(client.x_train, xs)
            assert np.array_equal(client.y_train, ys)

    def test_flagged_but_inactive_attack_equals_honest_run(self):
        a = init_state("lstm", make_clients(3), seed=4)
        clients = make_clients(3)
        clients[0].malicious = True  # flagged, but attack family stays none
        b = init_state("lstm", clients, seed=4)
        fed.run_round(a, "lstm", CFG)
        fed.run_round(b, "lstm", CFG)
        for name in a.global_weights:
            np.testing.assert_array_equal(a.global_weights[name], b.global_weights[name])

    def test_no_earlier_client_map_is_alive_when_a_client_trains(self, monkeypatch):
        # one-element weights are kept by fedavg for np.mean at the end
        returned, alive = [], []

        def tracking_train_local(model, x, y, cfg, **kw):
            alive.append(sum(r() is not None for r in returned))
            loss = train_local(model, x, y, cfg, **kw)
            returned.extend(weakref.ref(a) for a in model.params.values() if a.size > 1)
            return loss

        force_workers(monkeypatch, 1)
        monkeypatch.setattr(fed, "train_local", tracking_train_local)
        state = init_state("lstm", make_clients(4), seed=3)
        fed.run_round(state, "lstm", CFG)
        assert alive == [0] * 4 and returned

    def test_round_record_contents(self):
        clients = make_clients(4, malicious_ids=(0, 2),
                               attack=AttackSpec(family="awgn"))
        state = init_state("lstm", clients, seed=0)
        rec = fed.run_round(state, "lstm", CFG)
        assert rec.round == 1 and state.round == 1
        assert rec.malicious_count == 2
        assert np.isfinite(rec.mean_local_loss)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(fed, "_workers", lambda: workers)


class TestConcurrentClients:
    PGD = AttackSpec(family="pgd", epsilon=0.2, pgd_iters=2)

    def run(self, monkeypatch, model_name, workers, clients):
        force_workers(monkeypatch, workers)
        state = init_state(model_name, clients, seed=8)
        x_eval, y_eval = toy_client_data(77, n=16)
        records = fed.run_federation(state, model_name, replace(CFG, epochs=2),
                                     eval_x=x_eval, eval_y=y_eval)
        return state.global_weights, records

    @pytest.mark.parametrize("model_name,malicious", [
        ("transformer", ()),
        ("transformer", (1, 3)),
        ("lstm", ()),
        ("lstm", (1, 3)),
    ], ids=["clean", "pgd_2_of_5", "lstm_clean", "lstm_pgd_2_of_5"])
    def test_concurrent_rounds_equal_serial_rounds(self, monkeypatch, model_name,
                                                   malicious):
        def clients():
            return make_clients(5 if malicious else 3, malicious_ids=malicious,
                                attack=self.PGD, n=20)

        serial_w, serial_r = self.run(monkeypatch, model_name, 1, clients())
        assert [r.malicious_count for r in serial_r] == [len(malicious)] * 2
        for workers in (2, 3):
            w, records = self.run(monkeypatch, model_name, workers, clients())
            assert records == serial_r
            for name in serial_w:
                assert np.array_equal(w[name], serial_w[name]), name

    def test_one_model_per_worker_matches_fresh_model_per_client(self, monkeypatch):
        clients = make_clients(3, malicious_ids=(1,), attack=self.PGD, n=20)
        state = init_state("transformer", clients, seed=6)
        start = {k: v.copy() for k, v in state.global_weights.items()}
        built = []

        def counting_make_model(*args, **kwargs):
            built.append(args)
            return make_model(*args, **kwargs)

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(fed, "make_model", counting_make_model)
        fed.run_round(state, "transformer", CFG)
        assert len(built) == 2

        returned = []
        for client in clients:
            model = make_model("transformer", seed=0)
            model.set_weights(start)
            x, y = client.x_train, client.y_train
            if client.malicious:
                x, y = fed.poisoned_training_set(model, client, 1, 6, CFG)
            train_local(model, x, y, CFG, seed=derive_seed(6, "train", client.client_id, 1),
                        epoch=1)
            returned.append(model.get_weights())
        expected = fedavg(returned)
        for name, arr in state.global_weights.items():
            np.testing.assert_array_equal(arr, expected[name])

    def test_two_worker_transformer_round_peaks_low(self, monkeypatch):
        force_workers(monkeypatch, 2)
        cfg = TrainConfig(epochs=1, batch_size=32)
        state = init_state("transformer", make_clients(4, n=64), seed=0)
        fed.run_round(state, "transformer", cfg)
        tracemalloc.start()
        try:
            fed.run_round(state, "transformer", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the workers' models, RmsProp states and tapes, the broadcast and
        # the client maps not yet folded; which of them meet depends on the
        # threads' timing: 78.0-96.9 MiB over 26 rounds with each block's q,
        # k and v saved for training, 60.1-75.3 MiB over 56 without, and
        # 58.9-67.9 MiB over 24 with backward dropping each array at its
        # last reader (61.0-70.7 MiB over 24 before)
        assert peak < 80 * 2**20

    def test_pgd_inside_a_concurrent_round_starts_no_further_thread(self, monkeypatch):
        monkeypatch.setattr(md, "blas_threads", lambda: 1)  # as after the pin, on any build
        monkeypatch.setattr(md.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert md._workers() == 2  # outside a round
        started, rows = [], []
        thread_cls, grad_fn = md.threading.Thread, atk.input_gradient

        class CountingThread(thread_cls):
            def start(self):
                started.append(self)
                super().start()

        def spy_gradient(m, xb, yb, *args):
            rows.append(len(xb))
            return grad_fn(m, xb, yb, *args)

        monkeypatch.setattr(md.threading, "Thread", CountingThread)
        monkeypatch.setattr(atk, "input_gradient", spy_gradient)
        # every row of each client is poisoned: 48 rows, two 24-row blocks of
        # PGD on each client's worker, where three 16-row blocks would run on
        # two workers outside a round
        clients = make_clients(3, malicious_ids=(0, 1, 2), attack=self.PGD, n=48,
                               poison_fraction=1.0)
        state = init_state("transformer", clients, seed=5)
        record = fed.run_round(state, "transformer", CFG)
        assert record.malicious_count == 3
        assert len(started) == 1
        assert rows == [24] * 12 and max(rows) <= md.TransformerClassifier.ROW_BLOCK
        assert not md._task_thread.busy

    @pytest.mark.parametrize("blas_var,reported,expected", [
        ("OPENBLAS_NUM_THREADS", 1, 2), ("OMP_NUM_THREADS", 1, 2),
        ("OPENBLAS_NUM_THREADS", 2, 1), ("OMP_NUM_THREADS", 2, 1), (None, None, 1)])
    def test_worker_count_follows_blas_threads(self, monkeypatch, blas_var, reported,
                                               expected):
        # the count BLAS reports decides, and a caller may raise it after
        # import; ``blas_var`` holds the other count and counts for nothing
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(md.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        if reported is None:  # a BLAS whose count cannot be asked
            monkeypatch.setattr(md, "_BLAS_THREAD_CALLS", None)
            assert md.blas_threads() is None
            assert md._workers() == expected
            return
        if md._BLAS_THREAD_CALLS is None:
            pytest.skip("this numpy's BLAS has no thread-count setter")
        monkeypatch.setenv(blas_var, str(3 - reported))
        set_threads = md._BLAS_THREAD_CALLS[0]
        set_threads(reported)
        try:
            assert md.blas_threads() == reported
            assert md._workers() == expected
        finally:
            set_threads(1)
        assert md.blas_threads() == 1

    def test_importing_fedmeter_sets_blas_to_one_thread(self):
        if md._BLAS_THREAD_CALLS is None:
            pytest.skip("this numpy's BLAS has no thread-count setter")
        src = os.path.dirname(os.path.dirname(os.path.abspath(md.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = ("import numpy, fedmeter\n"
                "print(fedmeter.models.blas_threads(), fedmeter.models._workers())\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path,
                                   "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert proc.stdout.split() == ["1", str(min(cores, md.MAX_WORKERS))]

    @pytest.mark.parametrize("cores,expected", [(1, 1), (2, 2), (16, md.MAX_WORKERS)])
    def test_worker_count_is_capped_at_the_measured_count(self, monkeypatch, cores, expected):
        monkeypatch.setattr(md, "blas_threads", lambda: 1)
        monkeypatch.setattr(md.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert md.MAX_WORKERS == 2
        assert md._workers() == expected

    def test_every_index_taken_once_and_yielded_in_order_under_stress(self):
        # more workers than cores, and a thread switch every microsecond: a
        # lost update of the shared index would run some task twice
        calls, rng = [], np.random.default_rng(0)
        delays = rng.uniform(0, 1e-3, size=300)

        def task(model, i):
            calls.append(i)
            time.sleep(delays[i])
            return (model, i)

        got = []

        def consume(i, result):
            assert result[1] == i
            got.append(result)

        consumer = threading.Thread(
            target=lambda: md._in_order(task, len(delays), list(range(8)), consume))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer.start()
            consumer.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive()
        assert sorted(calls) == list(range(len(delays)))
        assert [i for _, i in got] == list(range(len(delays)))
        assert len({model for model, _ in got}) > 1  # the helpers took part

    def test_one_model_runs_every_task_on_the_calling_thread(self):
        threads = []

        def task(model, i):
            threads.append(threading.current_thread())
            return (model, i)

        before, got = threading.active_count(), []
        md._in_order(task, 5, ["only"], lambda i, result: got.append(result))
        assert got == [("only", i) for i in range(5)]
        assert threads == [threading.current_thread()] * 5
        assert threading.active_count() == before

    def test_a_dropped_result_is_freed_before_the_next_task(self):
        refs, dead = [], []

        def task(model, i):
            if refs:
                dead.append(refs[-1]() is None)
            out = np.full(4, float(i))
            refs.append(weakref.ref(out))
            return out

        got = []
        md._in_order(task, 4, ["only"], lambda i, result: got.append(float(result[0])))
        assert got == [0.0, 1.0, 2.0, 3.0]
        assert dead == [True] * 3

    def test_worker_error_reaches_caller_with_its_type(self):
        failed, started = threading.Event(), []

        def task(model, i):
            started.append(i)
            if model == "helper":
                failed.set()
                raise FloatingPointError(f"client {i}")
            assert failed.wait(10)
            deadline = time.monotonic() + 10
            while threading.active_count() > before and time.monotonic() < deadline:
                time.sleep(0.01)  # the helper thread ends once its error is recorded
            return i

        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="client"):
            md._in_order(task, 10, ["caller", "helper"], lambda i, result: None)
        assert threading.active_count() == before  # the helper was joined
        # the helper failed on its first client, and the caller took at most one
        assert sorted(started) in ([0], [0, 1])

    def test_consume_error_reaches_caller_with_its_type(self):
        consumed = []

        def consume(i, result):
            if i == 3:
                raise KeyError(f"result {i}")
            consumed.append(result)

        before = threading.active_count()
        with pytest.raises(KeyError, match="result 3"):
            md._in_order(lambda model, i: i, 10, ["caller", "helper"], consume)
        assert threading.active_count() == before  # the helper was joined
        assert consumed == [0, 1, 2]

    def test_the_helper_folds_the_client_that_completes_the_order(self, monkeypatch):
        # scripted: the caller trains client 0 and finishes it before the
        # helper finishes client 1, so the helper folds client 1 itself and
        # lets its map go before it trains client 3
        clients = make_clients(4)
        force_workers(monkeypatch, 1)
        serial = init_state("lstm", clients, seed=4)
        fed.run_round(serial, "lstm", CFG)

        caller = threading.current_thread()
        took, helper_on_1, caller_on_2, checked = (threading.Event() for _ in range(4))
        folds, client_1, dead = [], [], []
        thread_cls, set_weights, add = (md.threading.Thread, md.LstmClassifier.set_weights,
                                        fed._RunningMean.add)

        class AfterTheCallersFirstTake(thread_cls):
            def run(self):
                assert took.wait(10)
                super().run()

        def spy_set_weights(model, weights):
            set_weights(model, weights)
            if threading.current_thread() is caller:
                took.set()
            elif client_1:  # the helper's first set_weights after client 1
                dead.append([r() is None for r in client_1])
                checked.set()

        def spy_train_local(model, x, y, cfg, **kw):
            if x is clients[0].x_train:
                assert helper_on_1.wait(10)
            elif x is clients[1].x_train:
                helper_on_1.set()
            elif x is clients[2].x_train:
                caller_on_2.set()  # so client 0 is folded
                assert checked.wait(10)
            loss = train_local(model, x, y, cfg, **kw)
            if x is clients[1].x_train:
                client_1.extend(weakref.ref(a) for a in model.params.values() if a.size > 1)
                assert caller_on_2.wait(10)
            return loss

        def spy_add(mean, m):
            folds.append(threading.current_thread())
            add(mean, m)

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(md.threading, "Thread", AfterTheCallersFirstTake)
        monkeypatch.setattr(md.LstmClassifier, "set_weights", spy_set_weights)
        monkeypatch.setattr(fed, "train_local", spy_train_local)
        monkeypatch.setattr(fed._RunningMean, "add", spy_add)
        state = init_state("lstm", clients, seed=4)
        fed.run_round(state, "lstm", CFG)
        assert len(folds) == 4 and folds[0] is caller
        assert folds[1] is not caller  # client 1 was folded on the helper
        assert client_1 and dead == [[True] * len(client_1)]
        for name, arr in serial.global_weights.items():
            assert np.array_equal(state.global_weights[name], arr), name

    def test_interrupt_in_caller_joins_helpers_before_it_is_raised(self):
        busy, raising, finished = threading.Event(), threading.Event(), []

        def task(model, i):
            if model == "caller":
                assert busy.wait(10)
                raising.set()
                raise KeyboardInterrupt
            busy.set()
            raising.wait(10)
            time.sleep(0.1)  # still busy while the caller unwinds
            finished.append(i)
            return i

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            md._in_order(task, 10, ["caller", "helper"], lambda i, result: None)
        assert threading.active_count() == before
        assert len(finished) == 1  # the client in flight ended, and no other began

    def test_numeric_error_in_a_worker_fails_the_round(self, monkeypatch):
        def failing_train_local(model, x, y, cfg, **kw):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("non-finite loss at epoch 1")
            return train_local(model, x, y, cfg, **kw)

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(fed, "train_local", failing_train_local)
        state = init_state("lstm", make_clients(4), seed=3)
        start = {k: v.copy() for k, v in state.global_weights.items()}
        with pytest.raises(FloatingPointError, match="non-finite"):
            fed.run_round(state, "lstm", CFG)
        assert state.round == 0
        assert all(np.array_equal(state.global_weights[k], start[k]) for k in start)


class TestPoisonedTrainingSet:
    def setup_method(self):
        x, y = toy_client_data(1, n=32)
        self.client = ClientNode("m0", x, y, malicious=True,
                                 attack=AttackSpec(family="fgsm", epsilon=0.3),
                                 poison_fraction=0.25)
        self.model = make_model("lstm", seed=0)

    def test_poison_count(self):
        x, y = fed.poisoned_training_set(self.model, self.client, 1, 0, CFG)
        changed = np.sum(np.any(x != self.client.x_train, axis=1))
        assert changed == int(0.25 * 32)
        assert np.array_equal(y, self.client.y_train)

    def test_fresh_subset_each_round(self):
        x1, _ = fed.poisoned_training_set(self.model, self.client, 1, 0, CFG)
        x2, _ = fed.poisoned_training_set(self.model, self.client, 2, 0, CFG)
        rows1 = set(np.flatnonzero(np.any(x1 != self.client.x_train, axis=1)))
        rows2 = set(np.flatnonzero(np.any(x2 != self.client.x_train, axis=1)))
        assert rows1 != rows2

    def test_depends_on_current_model(self):
        other = make_model("lstm", seed=99)
        x1, _ = fed.poisoned_training_set(self.model, self.client, 1, 0, CFG)
        x2, _ = fed.poisoned_training_set(other, self.client, 1, 0, CFG)
        assert not np.array_equal(x1, x2)


class TestDeterminismAndLogs:
    def run_once(self, tmp_path, tag):
        clients = make_clients(3, malicious_ids=(1,),
                               attack=AttackSpec(family="pgd", epsilon=0.3, pgd_iters=2))
        state = init_state("lstm", clients, seed=11)
        x_eval, y_eval = toy_client_data(55)
        log = tmp_path / f"rounds_{tag}.jsonl"
        fed.run_federation(state, "lstm", replace(CFG, epochs=2), eval_x=x_eval,
                           eval_y=y_eval, log_path=log)
        return state.global_weights, log.read_bytes()

    def test_bitwise_reproducible(self, tmp_path):
        wa, la = self.run_once(tmp_path, "a")
        wb, lb = self.run_once(tmp_path, "b")
        assert la == lb
        assert all(np.array_equal(wa[k], wb[k]) for k in wa)

    def test_prefix_property(self):
        def run(rounds):
            state = init_state("lstm", make_clients(3), seed=6)
            recs = fed.run_federation(state, "lstm", replace(CFG, epochs=rounds))
            return state, recs

        s3, r3 = run(3)
        s5, r5 = run(5)
        assert [r.round for r in r5[:3]] == [r.round for r in r3]
        assert [r.mean_local_loss for r in r5[:3]] == [r.mean_local_loss for r in r3]

    def test_runs_train_epochs_rounds(self):
        state = init_state("lstm", make_clients(2), seed=6)
        records = fed.run_federation(state, "lstm", TrainConfig(epochs=3, batch_size=16))
        assert [r.round for r in records] == [1, 2, 3]
        assert state.round == 3

    def test_round_log_schema(self, tmp_path):
        import json
        _, log_bytes = self.run_once(tmp_path, "schema")
        lines = log_bytes.decode().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert set(rec) == {"round", "malicious_count", "mean_local_loss",
                            "global_test_accuracy"}

    @pytest.mark.parametrize("rounds,evaluated", [(3, [1, 2, 3]),
                                                  (25, [2, 4, 6, 8, 10, 12, 14, 16, 18,
                                                        20, 22, 24, 25])])
    def test_evaluates_about_ten_times_and_after_the_last_round(self, monkeypatch,
                                                                rounds, evaluated):
        def no_training(state, model_name, cfg):
            state.round += 1
            return fed.RoundRecord(state.round, 0, 0.0)

        monkeypatch.setattr(fed, "run_round", no_training)
        x_eval, y_eval = toy_client_data(55)
        state = init_state("lstm", make_clients(2), seed=3)
        records = fed.run_federation(state, "lstm", replace(CFG, epochs=rounds),
                                     eval_x=x_eval, eval_y=y_eval)
        assert [r.round for r in records if r.global_test_accuracy is not None] == evaluated


class TestCentralized:
    @pytest.mark.parametrize("family", ["label_flip", "awgn"])
    def test_an_attack_alone_poisons_the_reference_fraction_each_epoch(self, monkeypatch,
                                                                       family):
        x, y = toy_client_data(9, n=38)
        seen = []

        def recording_train_local(model, xe, ye, cfg, **kwargs):
            seen.append((xe, ye))
            return train_local(model, xe, ye, cfg, **kwargs)

        monkeypatch.setattr(fed, "train_local", recording_train_local)
        fed.run_centralized(x, y, "lstm", replace(CFG, epochs=2), seed=0,
                            attack=AttackSpec(family=family))
        assert len(seen) == 2
        # floor(0.3 * 38) rows poisoned, a fresh subset each epoch
        changed = [np.flatnonzero((xe != x).any(axis=1) | (ye != y)) for xe, ye in seen]
        assert [len(rows) for rows in changed] == [11, 11]
        assert not np.array_equal(*changed)

    def test_full_label_flip_inverts_predictions(self):
        x, y = toy_client_data(13, n=48)
        cfg = TrainConfig(epochs=40, batch_size=16)
        clean = fed.run_centralized(x, y, "lstm", cfg, seed=1)
        acc_clean = compute_metrics(classify(clean, x), y).accuracy
        # one malicious client that flips every label of its data each round
        state = init_state("lstm", [ClientNode("m0", x, y, malicious=True,
                                               attack=AttackSpec(family="label_flip"),
                                               poison_fraction=1.0)], seed=1)
        fed.run_federation(state, "lstm", cfg)
        flipped = make_model("lstm")
        flipped.set_weights(state.global_weights)
        acc_flipped = compute_metrics(classify(flipped, x), y).accuracy
        assert acc_clean > 0.95
        assert abs(acc_flipped - (1.0 - acc_clean)) < 0.1

    def test_attack_free_matches_plain_training(self):
        x, y = toy_client_data(21, n=32)
        model = fed.run_centralized(x, y, "lstm", replace(CFG, epochs=3), seed=5)
        # the weights init_state gives a federation of the same seed
        ref = make_model("lstm", seed=derive_seed(5, "global-init"))
        optimizer = RmsProp()  # one state across the epochs
        for epoch in (1, 2, 3):
            train_local(ref, x, y, CFG, seed=5, epoch=epoch, optimizer=optimizer)
        w, rw = model.get_weights(), ref.get_weights()
        assert all(np.array_equal(w[k], rw[k]) for k in w)
