import re
import sys
import threading
import time

import numpy as np
import pytest

from fedmeter import federation as fed
from fedmeter.attacks import AttackSpec
from fedmeter.evaluation import classify, compute_metrics
from fedmeter.federation import ClientNode, FederationState, fedavg, init_state
from fedmeter.models import (NumericError, TrainConfig, make_model, train_local,
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


CFG = TrainConfig(epochs=1, batch_size=16, seed=0)


class TestClientNode:
    def test_honest_client_cannot_attack(self):
        x, y = toy_client_data(0)
        with pytest.raises(ValueError, match="honest"):
            ClientNode("c0", x, y, malicious=False, attack=AttackSpec(family="fgsm"))


class TestSelectClients:
    def state(self, n_clients=19, n_round=10, seed=5):
        return FederationState({}, make_clients(n_clients, n=4) if False else
                               [ClientNode(f"c{i}", np.zeros((2, 24)), np.zeros(2))
                                for i in range(n_clients)], n_round, seed=seed)

    def test_full_participation(self):
        state = self.state(n_clients=7, n_round=7)
        assert fed.select_clients(state, 1) == list(range(7))

    def test_deterministic_per_round(self):
        state = self.state()
        assert fed.select_clients(state, 3) == fed.select_clients(state, 3)
        assert fed.select_clients(state, 3) != fed.select_clients(state, 4)

    def test_distinct_members(self):
        state = self.state()
        for r in range(1, 30):
            picked = fed.select_clients(state, r)
            assert len(picked) == len(set(picked)) == 10

    def test_uniform_frequency(self):
        # 1000 rounds of 10-of-19: expected count 526, sd ~15.8
        state = self.state()
        counts = np.zeros(19)
        for r in range(1, 1001):
            counts[fed.select_clients(state, r)] += 1
        expected = 1000 * 10 / 19
        sd = np.sqrt(1000 * (10 / 19) * (9 / 19))
        assert np.all(np.abs(counts - expected) <= 3 * sd)

    def test_too_many_requested(self):
        with pytest.raises(ValueError):
            FederationState({}, [ClientNode("a", np.zeros((2, 24)), np.zeros(2))], 2)


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
        fed.run_federation(state, "lstm", CFG, t_rounds=3)

        model = make_model("lstm", seed=0)
        model.set_weights(start)
        for t in (1, 2, 3):
            train_local(model, x, y, CFG, seed=derive_seed(9, "train", "c0", t),
                        epochs=1, epoch_offset=t - 1)
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
                        epochs=1, epoch_offset=0)
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
        fed.run_federation(state, "lstm", CFG, t_rounds=2)
        assert len(decoded) == 2

    def test_honest_data_untouched(self):
        clients = make_clients(3, malicious_ids=(1,),
                               attack=AttackSpec(family="fgsm", epsilon=0.4))
        snapshots = [(c.x_train.copy(), c.y_train.copy()) for c in clients]
        state = init_state("lstm", clients, seed=2)
        fed.run_federation(state, "lstm", CFG, t_rounds=2)
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

    def test_round_record_contents(self):
        clients = make_clients(4, malicious_ids=(0, 2),
                               attack=AttackSpec(family="awgn"))
        state = init_state("lstm", clients, seed=0)
        rec = fed.run_round(state, "lstm", CFG)
        assert rec.round == 1 and state.round == 1
        assert rec.selected == ["c0", "c1", "c2", "c3"]
        assert rec.malicious_count == 2
        assert np.isfinite(rec.mean_local_loss)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(fed, "_client_workers", lambda model: workers)


class TestConcurrentClients:
    PGD = AttackSpec(family="pgd", epsilon=0.2, pgd_iters=2)

    def run(self, monkeypatch, workers, clients, **kw):
        force_workers(monkeypatch, workers)
        state = init_state("transformer", clients, seed=8, **kw)
        x_eval, y_eval = toy_client_data(77, n=16)
        records = fed.run_federation(state, "transformer", CFG, t_rounds=2,
                                     eval_x=x_eval, eval_y=y_eval)
        return state.global_weights, records

    @pytest.mark.parametrize("malicious,kw", [
        ((), {}),
        ((1, 3), {"clients_per_round": 3, "local_epochs": 2}),
    ], ids=["clean", "pgd_3_of_5_two_epochs"])
    def test_concurrent_rounds_equal_serial_rounds(self, monkeypatch, malicious, kw):
        def clients():
            return make_clients(5 if malicious else 3, malicious_ids=malicious,
                                attack=self.PGD, n=20)

        serial_w, serial_r = self.run(monkeypatch, 1, clients(), **kw)
        assert (sum(r.malicious_count for r in serial_r) > 0) == bool(malicious)
        for workers in (2, 3):
            w, records = self.run(monkeypatch, workers, clients(), **kw)
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
                        epochs=1, epoch_offset=0)
            returned.append(model.get_weights())
        expected = fedavg(returned)
        for name, arr in state.global_weights.items():
            np.testing.assert_array_equal(arr, expected[name])

    @pytest.mark.parametrize("blas_var,value,expected", [
        ("OPENBLAS_NUM_THREADS", "1", 2), ("OMP_NUM_THREADS", "1", 2),
        ("OPENBLAS_NUM_THREADS", "2", 1), ("OMP_NUM_THREADS", "4", 1), (None, None, 1)])
    def test_worker_count_follows_blas_threads(self, monkeypatch, blas_var, value, expected):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if blas_var == "OPENBLAS_NUM_THREADS":
            blas = str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"])
            blas_var = "MKL_NUM_THREADS" if "mkl" in blas.lower() else blas_var
        if blas_var is not None:
            monkeypatch.setenv(blas_var, value)
        monkeypatch.setattr(fed.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert fed._client_workers(make_model("transformer")) == expected
        assert fed._client_workers(make_model("lstm")) == 1

    @pytest.mark.parametrize("cores,expected", [(1, 1), (2, 2), (16, fed.MAX_CLIENT_WORKERS)])
    def test_worker_count_is_capped_at_the_measured_count(self, monkeypatch, cores, expected):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        monkeypatch.setattr(fed.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert fed.MAX_CLIENT_WORKERS == 2
        assert fed._client_workers(make_model("transformer")) == expected

    def test_worker_count_prefers_the_blas_variable_over_omp(self, monkeypatch):
        blas = str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"])
        monkeypatch.setenv("MKL_NUM_THREADS" if "mkl" in blas.lower()
                           else "OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert fed._client_workers(make_model("transformer")) == 1

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
        consumer = threading.Thread(
            target=lambda: got.extend(fed._in_order(task, len(delays), list(range(8)))))
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

        before = threading.active_count()
        assert list(fed._in_order(task, 5, ["only"])) == [("only", i) for i in range(5)]
        assert threads == [threading.current_thread()] * 5
        assert threading.active_count() == before

    def test_worker_error_reaches_caller_with_its_type(self):
        failed, started = threading.Event(), []

        def task(model, i):
            started.append(i)
            if model == "helper":
                failed.set()
                raise NumericError(f"client {i}")
            assert failed.wait(10)
            deadline = time.monotonic() + 10
            while threading.active_count() > before and time.monotonic() < deadline:
                time.sleep(0.01)  # the helper thread ends once its error is recorded
            return i

        before = threading.active_count()
        with pytest.raises(NumericError, match="client"):
            list(fed._in_order(task, 10, ["caller", "helper"]))
        assert threading.active_count() == before  # the helper was joined
        # the helper failed on its first client, and the caller took at most one
        assert sorted(started) in ([0], [0, 1])

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
            list(fed._in_order(task, 10, ["caller", "helper"]))
        assert threading.active_count() == before
        assert len(finished) == 1  # the client in flight ended, and no other began

    def test_numeric_error_in_a_worker_fails_the_round(self, monkeypatch):
        def failing_train_local(model, x, y, cfg, **kw):
            if threading.current_thread() is not threading.main_thread():
                raise NumericError("non-finite loss at epoch 1")
            return train_local(model, x, y, cfg, **kw)

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(fed, "train_local", failing_train_local)
        state = init_state("lstm", make_clients(4), seed=3)
        start = {k: v.copy() for k, v in state.global_weights.items()}
        with pytest.raises(NumericError, match="non-finite"):
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
        fed.run_federation(state, "lstm", CFG, t_rounds=2, eval_x=x_eval,
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
            recs = fed.run_federation(state, "lstm", CFG, t_rounds=rounds)
            return state, recs

        s3, r3 = run(3)
        s5, r5 = run(5)
        assert [r.selected for r in r5[:3]] == [r.selected for r in r3]
        assert [r.mean_local_loss for r in r5[:3]] == [r.mean_local_loss for r in r3]

    def test_round_log_schema(self, tmp_path):
        import json
        _, log_bytes = self.run_once(tmp_path, "schema")
        lines = log_bytes.decode().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert set(rec) == {"round", "selected", "malicious_count",
                            "mean_local_loss", "global_test_accuracy"}


class TestCentralized:
    def test_poison_zero_is_bitwise_clean(self):
        x, y = toy_client_data(7, n=32)
        m1, h1 = fed.run_centralized(x, y, "lstm", CFG, epochs=2,
                                     attack=AttackSpec(family="fgsm", epsilon=0.5),
                                     poison_fraction=0.0)
        m2, h2 = fed.run_centralized(x, y, "lstm", CFG, epochs=2)
        assert h1 == h2
        w1, w2 = m1.get_weights(), m2.get_weights()
        assert all(np.array_equal(w1[k], w2[k]) for k in w1)

    def test_full_label_flip_inverts_predictions(self):
        x, y = toy_client_data(13, n=48)
        cfg = TrainConfig(epochs=40, batch_size=16, seed=1)
        clean, _ = fed.run_centralized(x, y, "lstm", cfg)
        acc_clean = compute_metrics(classify(clean, x), y).accuracy
        flipped, _ = fed.run_centralized(
            x, y, "lstm", cfg,
            attack=AttackSpec(family="label_flip", flip_fraction=1.0),
            poison_fraction=1.0)
        acc_flipped = compute_metrics(classify(flipped, x), y).accuracy
        assert acc_clean > 0.95
        assert abs(acc_flipped - (1.0 - acc_clean)) < 0.1

    def test_attack_free_matches_plain_training(self):
        x, y = toy_client_data(21, n=32)
        model, history = fed.run_centralized(x, y, "lstm", CFG, epochs=3, seed=5)
        ref = make_model("lstm", seed=derive_seed(5, "central-init"))
        ref_hist = train_local(ref, x, y, CFG, seed=5, epochs=3)
        assert history == ref_hist
        w, rw = model.get_weights(), ref.get_weights()
        assert all(np.array_equal(w[k], rw[k]) for k in w)
