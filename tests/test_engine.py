"""The client-stacked round engine against per-client references, bit for bit.

Every reference here is the per-client loop written with 2-D calls and
whole-array temporaries, the way the engine computed before its client
axis existed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitsim import nn, protocols, splitting
from splitsim.errors import InputError, NumericError
from splitsim.protocols import STREAM_ACTIVE, ProtocolConfig, SplitTrainer, keyed_rng

BATCHES = [1, 7, 8, 9, 13, 32]
ENGINE = settings(max_examples=30, deadline=None)


def textbook_adam(params, grads, state, lr):
    """Adam with whole-array temporaries; ``state`` holds plain lists."""
    state["t"] += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1, bc2 = 1.0 - b1 ** state["t"], 1.0 - b2 ** state["t"]
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state["m"][i] = b1 * state["m"][i] + (1.0 - b1) * g
        state["v"][i] = b2 * state["v"][i] + (1.0 - b2) * g * g
        m_hat = state["m"][i] / bc1
        v_hat = state["v"][i] / bc2
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


def reference_step(params, grads, state, kind, lr):
    if kind == "sgd":
        return nn.sgd_step(params, grads, lr)
    return textbook_adam(params, grads, state, lr)


def textbook_pass(layers, x, upstream):
    """2-D forward and backward of one client's segment, formulas written out."""
    inputs = []
    for layer in layers:
        inputs.append(x)
        x = x @ layer.weight.T + layer.bias if layer.kind == "dense" else np.maximum(x, 0.0)
    grads, g = [], upstream
    for layer, inp in zip(reversed(layers), reversed(inputs)):
        if layer.kind == "dense":
            grads = [g.T @ inp, g.sum(axis=0)] + grads
            g = g @ layer.weight
        else:
            g = g * (inp > 0.0)
    return x, grads, g


def textbook_loss(logits, labels):
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    per_row = log_z - shifted[np.arange(n), labels]
    grad = np.exp(shifted - log_z[:, None])
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(per_row.mean()), grad


def make_net(rng, depth=4, width=(2, 9)):
    widths = [int(w) for w in rng.integers(*width, size=depth + 1)]
    return nn.build_mlp(widths, rng)


@ENGINE
@given(
    clients=st.integers(1, 6),
    batch=st.sampled_from(BATCHES),
    cut=st.sampled_from([2, 4, 6]),
    seed=st.integers(0, 2**16),
)
def test_stacked_forward_backward_loss_equal_per_client(clients, batch, cut, seed):
    rng = np.random.default_rng(seed)
    layers = make_net(rng)
    buffer = nn.ParamBuffer([clients * nn.param_count(layers[:cut])], "sgd")
    stack = nn.LayerStack(layers[:cut], clients, buffer)
    stack.flat[:] += rng.normal(scale=0.1, size=stack.flat.shape)
    x = rng.normal(size=(clients, batch, layers[0].in_dim))
    cache = nn.forward(stack.layers, x)
    upstream = rng.normal(size=cache.output.shape)
    grads, grad_x = nn.backward(cache, upstream)

    server = layers[cut:]
    logits = nn.forward(server, cache.output.reshape(clients * batch, -1)).output
    logits = logits.reshape(clients, batch, -1)
    labels = rng.integers(0, logits.shape[-1], size=(clients, batch))
    losses, loss_grad = nn.loss_softmax_ce(logits, labels)

    for c in range(clients):
        own = nn.forward(stack.slot_layers(c), x[c])
        own_grads, own_grad_x = nn.backward(own, upstream[c])
        out, want_grads, want_grad_x = textbook_pass(stack.slot_layers(c), x[c], upstream[c])
        for got in (cache.output[c], own.output):
            assert np.array_equal(got, out)
        for got in (grad_x[c], own_grad_x):
            assert np.array_equal(got, want_grad_x)
        for got, mine, want in zip(
            nn.collect_grads(grads), nn.collect_grads(own_grads), want_grads, strict=True
        ):
            assert np.array_equal(got[c], want) and np.array_equal(mine, want)
        want_loss, want_g = textbook_loss(logits[c], labels[c])
        loss, g = nn.loss_softmax_ce(logits[c], labels[c])
        assert losses[c] == loss == want_loss
        assert np.array_equal(loss_grad[c], want_g) and np.array_equal(g, want_g)


@ENGINE
@given(
    clients=st.integers(1, 6),
    optimizer=st.sampled_from(["sgd", "adam"]),
    extra=st.sampled_from([1, 7, nn.ADAM_CHUNK - 3, nn.ADAM_CHUNK + 5]),
    seed=st.integers(0, 2**16),
)
def test_stack_step_and_average_equal_per_client(clients, optimizer, extra, seed):
    """Parameter counts cross an ADAM_CHUNK boundary and are no multiple
    of it: the [clients, P] buffer is walked as one flat array."""
    rng = np.random.default_rng(seed)
    layers = [nn.glorot_dense(extra, 2, rng), nn.Relu(), nn.glorot_dense(2, 3, rng)]
    buffer = nn.ParamBuffer([clients * nn.param_count(layers)], optimizer)
    stack = nn.LayerStack(layers, clients, buffer)
    stack.flat[:] += rng.normal(scale=0.1, size=stack.flat.shape)
    params = [nn.collect_params(stack.slot_layers(c)) for c in range(clients)]
    params = [[p.copy() for p in ps] for ps in params]
    states = [
        {"t": 0, "m": [np.zeros_like(p) for p in ps], "v": [np.zeros_like(p) for p in ps]}
        for ps in params
    ]
    for _ in range(3):
        grads = [[rng.normal(size=(clients,) + p.shape)] for p in params[0]]
        for view, g in zip(nn.collect_grads(stack.grads), nn.collect_grads(grads), strict=True):
            view[...] = g
        buffer.step(1e-2)
        for c in range(clients):
            own = [g[0][c] for g in grads]
            params[c] = reference_step(params[c], own, states[c], optimizer, 1e-2)
    for c in range(clients):
        for got, want in zip(nn.collect_params(stack.slot_layers(c)), params[c]):
            assert np.array_equal(got, want)
        if optimizer == "adam":
            opt = stack.slot_optimizer(c)
            assert opt.t == states[c]["t"]
            for got, want in zip(opt.m + opt.v, states[c]["m"] + states[c]["v"]):
                assert np.array_equal(got, want)

    weights = rng.random(clients)
    averaged = None
    for c in range(clients):
        scaled = [weights[c] * p for p in params[c]]
        averaged = scaled if averaged is None else [a + s for a, s in zip(averaged, scaled)]
    stack.average(weights)
    for c in range(clients):
        for got, want in zip(nn.collect_params(stack.slot_layers(c)), averaged):
            assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3 * nn.ADAM_CHUNK), min_size=1, max_size=3),
    steps=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_adam_kernel_equals_textbook(sizes, steps, seed):
    rng = np.random.default_rng(seed)
    params = [rng.normal(size=n) for n in sizes]
    state = nn.init_optimizer("adam", params)
    ref = {"t": 0, "m": [np.zeros(n) for n in sizes], "v": [np.zeros(n) for n in sizes]}
    want = [p.copy() for p in params]
    for _ in range(steps):
        grads = [rng.normal(size=n) for n in sizes]
        nn.optimizer_step(params, grads, state, 1e-3)
        want = textbook_adam(want, grads, ref, 1e-3)
    for got, expected in zip(params + state.m + state.v, want + ref["m"] + ref["v"]):
        assert np.array_equal(got, expected)


def fresh_state(layers):
    params = nn.collect_params(layers)
    return {"t": 0, "m": [np.zeros_like(p) for p in params],
            "v": [np.zeros_like(p) for p in params]}


def step_layers(layers, cache, upstream, state, optimizer, lr):
    grads, _ = nn.backward(cache, upstream)
    new = reference_step(
        nn.collect_params(layers), nn.collect_grads(grads), state, optimizer, lr
    )
    nn.set_params(layers, new)


def reference_server(server, state, smashed, labels, weights, optimizer, lr):
    """Concatenated server step with one loss call per client; returns the
    weighted loss and each client's cut-gradient slice."""
    cache = nn.forward(server, np.concatenate(smashed))
    upstream = np.zeros_like(cache.output)
    loss, b = 0.0, len(labels[0])
    for i, (w, y) in enumerate(zip(weights, labels)):
        part = slice(i * b, (i + 1) * b)
        loss_i, g = nn.loss_softmax_ce(cache.output[part], y)
        upstream[part] = w * g
        loss += w * loss_i
    grads, cut = nn.backward(cache, upstream)
    new = reference_step(
        nn.collect_params(server), nn.collect_grads(grads), state, optimizer, lr
    )
    nn.set_params(server, new)
    return loss, [cut[i * b:(i + 1) * b] for i in range(len(labels))]


def per_client_run(model, data, cfg, epochs):
    """The pre-stack trainer: one forward, loss, backward and optimizer call
    per client per round. Returns (epoch losses, client params, server)."""
    kind, opt = cfg.kind, cfg.optimizer
    total = sum(len(y) for _, y in data)
    deltas = [len(y) / total for _, y in data]
    segment = model.layers if kind == "fl" else model.client_segment
    clients = [nn.copy_layers(segment) for _ in data]
    states = [fresh_state(c) for c in clients]
    server = nn.copy_layers(model.server_segment)
    s_state = fresh_state(server)
    phi, alpha = cfg.effective_mechanisms()
    eta_c, eta_s = protocols.split_lr(cfg.base_lr, cfg.clients, alpha)
    epoch_losses = []
    for epoch in range(epochs):
        batches = [
            protocols._epoch_batches(
                len(y), cfg.batch_size,
                keyed_rng(cfg.seed, protocols.STREAM_BATCH, epoch, cid),
            )
            for cid, (_, y) in enumerate(data)
        ]
        losses = []
        if kind == "ssl":  # clients[0] is the travelling segment
            for cid, (x, y) in enumerate(data):
                for ix in batches[cid]:
                    cache = nn.forward(clients[0], x[ix])
                    loss, (cut,) = reference_server(
                        server, s_state, [cache.output], [y[ix]], [1.0], opt, eta_s
                    )
                    step_layers(clients[0], cache, cut, states[0], opt, eta_c)
                    losses.append(loss)
            epoch_losses.append(float(np.mean(losses)))
            continue
        active = protocols.sample_active_clients(
            cfg.clients, phi, keyed_rng(cfg.seed, STREAM_ACTIVE, epoch)
        ) if phi > 0 else []
        for r in range(min(len(b) for b in batches)):
            caches = [nn.forward(clients[c], x[batches[c][r]]) for c, (x, _) in enumerate(data)]
            labels = [y[batches[c][r]] for c, (_, y) in enumerate(data)]
            if kind == "fl":
                loss, ups = 0.0, []
                for cid, cache in enumerate(caches):
                    loss_i, g = nn.loss_softmax_ce(cache.output, labels[cid])
                    loss += deltas[cid] * loss_i
                    ups.append(g)
            else:
                loss, ups = reference_server(
                    server, s_state, [c.output for c in caches], labels, deltas, opt, eta_s
                )
                if active:
                    _, assigned = protocols.split_avg(dict(enumerate(ups)), active)
                    ups = [assigned[cid] for cid in range(len(data))]
            for cid, cache in enumerate(caches):
                step_layers(clients[cid], cache, ups[cid], states[cid], opt, eta_c)
            if kind in ("sfl", "fl"):
                averaged = None
                for cid in range(len(data)):
                    scaled = [deltas[cid] * p for p in nn.collect_params(clients[cid])]
                    averaged = scaled if averaged is None else [
                        a + s for a, s in zip(averaged, scaled)
                    ]
                for c in clients:
                    nn.set_params(c, [a.copy() for a in averaged])
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    if kind == "ssl":
        clients = [clients[0]] * len(data)
    server_params = [] if kind == "fl" else nn.collect_params(server)
    return epoch_losses, [nn.collect_params(c) for c in clients], server_params


@settings(max_examples=40, deadline=None)
@given(
    clients=st.integers(1, 6),
    batch=st.sampled_from(BATCHES),
    cut=st.sampled_from([2, 4, 6]),
    kind=st.sampled_from(protocols.PROTOCOL_KINDS),
    optimizer=st.sampled_from(["sgd", "adam"]),
    seed=st.integers(0, 2**16),
)
def test_trainer_equals_per_client_engine(clients, batch, cut, kind, optimizer, seed):
    rng = np.random.default_rng(seed)
    model = splitting.SplitModel(make_net(rng), cut)
    dim, classes = model.layers[0].in_dim, model.layers[-1].out_dim
    data = []
    for _ in range(clients):
        n = int(rng.integers(batch, 3 * batch + 1))  # unequal sample counts
        data.append((rng.normal(size=(n, dim)), rng.integers(0, classes, size=n)))
    cfg = ProtocolConfig(
        kind=kind, clients=clients, active_fraction=0.5, lr_exponent=0.5,
        base_lr=1e-2, batch_size=batch, epochs=2, optimizer=optimizer,
        seed=seed,
    )
    trainer = SplitTrainer(model.copy(), data, cfg)
    losses = [trainer.run_epoch(e).train_loss for e in range(2)]
    want_losses, want_clients, want_server = per_client_run(model, data, cfg, 2)

    assert losses == want_losses
    for client, want in zip(trainer.clients, want_clients):
        for got, expected in zip(nn.collect_params(client.layers), want):
            assert np.array_equal(got, expected)
    server = [] if trainer.server_layers is None else trainer.server_layers
    for got, expected in zip(nn.collect_params(server), want_server, strict=True):
        assert np.array_equal(got, expected)


def test_client_views_share_the_stack():
    rng = np.random.default_rng(3)
    model = splitting.SplitModel(nn.build_mlp([5, 6, 4, 3], rng), 2)
    data = [(rng.normal(size=(8, 5)), rng.integers(0, 3, size=8)) for _ in range(3)]
    t = SplitTrainer(model, data, ProtocolConfig(kind="psl", clients=3, batch_size=4))
    t.run_epoch(0)
    for c in t.clients:
        for view in nn.collect_params(c.layers) + c.opt.m + c.opt.v:
            assert np.shares_memory(view, t.stack.flat) or any(
                np.shares_memory(view, buf) for buf in t.stack.opt.m + t.stack.opt.v
            )
        assert c.opt.t == t.stack.opt.t == 2


def test_per_layer_check_catches_inf_that_relu_clamps():
    """A -inf pre-activation in one client's row becomes 0 after the ReLU;
    only the check on the dense output sees it."""
    rng = np.random.default_rng(4)
    model = splitting.SplitModel(nn.build_mlp([3, 4, 2], rng), 2)
    data = [(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4)) for _ in range(3)]
    data[1] = (np.abs(data[1][0]) + 1.0, data[1][1])
    t = SplitTrainer(model, data, ProtocolConfig(kind="psl", clients=3, batch_size=4))
    t.clients[1].layers[0].weight[0, :] = -1e308
    batch_ix = {c.client_id: t._batches_for(c, 0)[0] for c in t.clients}
    dense, relu = t.clients[1].layers
    with np.errstate(over="ignore"):
        pre = dense.forward(t.clients[1].features)
        assert np.isneginf(pre[:, 0]).all() and np.isfinite(relu.forward(pre)).all()
        with pytest.raises(NumericError, match=r"output of layer 0 \(dense\)"):
            t._parallel_round(batch_ix, [])


SEGMENT_SIZES = [1, 7, nn.ADAM_CHUNK - 3, nn.ADAM_CHUNK + 5, 2 * nn.ADAM_CHUNK + 11]


@settings(max_examples=25, deadline=None)
@given(
    optimizer=st.sampled_from(["sgd", "adam"]),
    sizes=st.lists(st.sampled_from(SEGMENT_SIZES), min_size=2, max_size=2),
    steps=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_buffer_step_equals_per_segment_steps(optimizer, sizes, steps, seed):
    """One step over a two-segment buffer with two learning rates equals
    adam_step/sgd_step on each segment alone; segments straddle chunks."""
    rng = np.random.default_rng(seed)
    lrs = [1e-2, 3.7e-2]
    buf = nn.ParamBuffer(sizes, optimizer)
    buf.params[:] = rng.normal(size=buf.params.size)
    bounds = [(0, sizes[0]), (sizes[0], sum(sizes))]
    want = [buf.params[lo:hi].copy() for lo, hi in bounds]
    states = [nn.init_optimizer(optimizer, [w]) for w in want]
    for _ in range(steps):
        buf.grads[:] = rng.normal(size=buf.grads.size)
        buf.step(lrs)
        for i, (lo, hi) in enumerate(bounds):
            g = [buf.grads[lo:hi]]
            if optimizer == "adam":
                (want[i],), _ = nn.adam_step([want[i]], g, states[i], lrs[i])
            else:
                (want[i],) = nn.sgd_step([want[i]], g, lrs[i])
    for i, (lo, hi) in enumerate(bounds):
        assert np.array_equal(buf.params[lo:hi], want[i])
        if optimizer == "adam":
            assert buf.opt.t == states[i].t == steps
            assert np.array_equal(buf.opt.m[i], states[i].m[0])
            assert np.array_equal(buf.opt.v[i], states[i].v[0])


def test_buffer_steps_allocate_no_scratch(monkeypatch):
    """Adam steps over a buffer whose walk spans several chunks and a short
    tail call no ``np.empty``: they work in the one pair the walk holds."""
    rng = np.random.default_rng(17)
    buf = nn.ParamBuffer([nn.ADAM_CHUNK + 9, 2 * nn.ADAM_CHUNK - 5], "adam")
    buf.params[:] = rng.normal(size=buf.params.size)
    scratch = buf._walk.scratch
    grads = rng.normal(size=(3, buf.grads.size))

    def refuse(*args, **kwargs):
        raise AssertionError("np.empty called during a step")

    monkeypatch.setattr(np, "empty", refuse)
    for g in grads:
        buf.grads[:] = g
        buf.step([1e-3, 3e-3])
    assert buf._walk.scratch is scratch and scratch.shape == (2, nn.ADAM_CHUNK)
    assert buf.opt.t == 3


def test_trainer_packs_client_rows_then_server():
    """Both segments are views of one buffer, each gradient lands in it,
    and slr steps its two segments with eta_c and eta_s."""
    rng = np.random.default_rng(6)
    model = splitting.SplitModel(nn.build_mlp([5, 6, 4, 3], rng), 2)
    data = [(rng.normal(size=(8, 5)), rng.integers(0, 3, size=8)) for _ in range(3)]
    cfg = ProtocolConfig(kind="slr", clients=3, batch_size=4, lr_exponent=0.5)
    t = SplitTrainer(model, data, cfg)
    client_size = t.stack.flat.size
    assert np.shares_memory(t.stack.flat, t.buffer.params[:client_size])
    assert np.shares_memory(t.server.flat, t.buffer.params[client_size:])
    assert [p.size for p in t.buffer.opt.m] == [client_size, t.server.flat.size]
    assert t.eta_c != t.eta_s
    rates, step = [], t.buffer.step
    t.buffer.step = lambda lr: (rates.append(list(lr)), step(lr))
    t.run_epoch(0)
    assert rates == [[t.eta_c, t.eta_s]] * 2
    assert np.any(t.stack.grad) and np.any(t.server.grad)
    assert t.buffer.opt.t == t.server_opt.t == 2


def small_trainer(kind, seed=6, **config):
    rng = np.random.default_rng(seed)
    model = splitting.SplitModel(nn.build_mlp([5, 6, 4, 3], rng), 2)
    data = [(rng.normal(size=(8, 5)), rng.integers(0, 3, size=8)) for _ in range(3)]
    return SplitTrainer(model, data, ProtocolConfig(kind=kind, clients=3, batch_size=4, **config))


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_buffer_arrays_are_rows_of_one_block(optimizer):
    """Params, grads and every segment of the Adam moments, and so the
    trainer's client and server stacks, are views of one allocation."""
    t = small_trainer("psl", optimizer=optimizer)
    buf = t.buffer
    views = [buf.params, buf.grads, *(buf.opt.m or []), *(buf.opt.v or []),
             t.stack.flat, t.server.grad]
    block = buf.params.base
    assert all(a.base is block for a in views)
    assert block.shape == ({"sgd": 2, "adam": 4}[optimizer], buf.params.size)


@pytest.mark.parametrize("kind", protocols.PROTOCOL_KINDS)
def test_set_params_through_trainer_views_writes_the_buffer(kind):
    """``nn.set_params`` through ``clients[i].layers`` and ``server_layers``
    writes the buffer: each next epoch equals one after the same write made
    straight into the buffer's rows, and the server layers stay its views."""
    rng = np.random.default_rng(13)
    via_views, direct = small_trainer(kind), small_trainer(kind)
    client = via_views.clients[2]
    new = [rng.normal(size=p.shape) for p in nn.collect_params(client.layers)]
    nn.set_params(client.layers, new)
    direct.stack.flat[client.slot] = np.concatenate([p.reshape(-1) for p in new])
    assert via_views.run_epoch(0) == direct.run_epoch(0)
    assert np.array_equal(via_views.buffer.params, direct.buffer.params)
    if not via_views.kind.server:
        return
    new = [rng.normal(size=p.shape) for p in nn.collect_params(via_views.server_layers)]
    nn.set_params(via_views.server_layers, new)
    assert all(np.shares_memory(p, via_views.buffer.params)
               for p in nn.collect_params(via_views.server_layers))
    direct.server.flat[0] = np.concatenate([p.reshape(-1) for p in new])
    assert via_views.run_epoch(1) == direct.run_epoch(1)
    assert np.array_equal(via_views.buffer.params, direct.buffer.params)


@pytest.mark.parametrize("kind", protocols.PROTOCOL_KINDS)
def test_evaluation_reads_client_0_as_it_stands(kind, monkeypatch):
    """The validation pass and ``evaluate_on`` read one layer list bound at
    build, which holds client 0's (and the server's) weights as the steps,
    LocAvg and ``set_params`` leave them."""
    rng = np.random.default_rng(18)
    model = splitting.SplitModel(nn.build_mlp([5, 6, 4, 3], rng), 2)
    data = [(rng.normal(size=(8, 5)), rng.integers(0, 3, size=8)) for _ in range(3)]
    t = SplitTrainer(model, data, ProtocolConfig(kind=kind, clients=3, batch_size=4),
                     val_data=data[0])
    seen, evaluate = [], protocols.evaluate

    def spy(layers, *args, **kwargs):
        now = [*t.clients[0].layers, *(t.server_layers or [])]
        seen.append(layers)
        assert all(np.array_equal(a, b) for a, b in
                   zip(nn.collect_params(layers), nn.collect_params(now), strict=True))
        return evaluate(layers, *args, **kwargs)

    monkeypatch.setattr(protocols, "evaluate", spy)
    t.run(2)
    nn.set_params(t.clients[0].layers, [rng.normal(size=p.shape)
                                        for p in nn.collect_params(t.clients[0].layers)])
    t.evaluate_on(*data[1])
    assert len(seen) == 3 and all(layers is seen[0] for layers in seen)


@pytest.mark.parametrize("kind, scaled", [("psl", "slr"), ("sgl", "sglr")])
def test_assigned_server_rate_is_the_rate_stepped(kind, scaled):
    """``trainer.eta_s = r`` takes effect at the next step: the epoch equals
    that of a trainer built with server rate r, and reports r."""
    t = small_trainer(kind, active_fraction=2 / 3, lr_exponent=0.5)
    want = small_trainer(scaled, active_fraction=2 / 3, lr_exponent=0.5)
    assert t.eta_s != want.eta_s
    t.eta_s = want.eta_s
    got = t.run_epoch(0)
    assert got == want.run_epoch(0) and got.server_lr == want.eta_s
    assert np.array_equal(t.buffer.params, want.buffer.params)


def test_overflowing_dense_output_raises():
    rng = np.random.default_rng(7)
    model = splitting.SplitModel(nn.build_mlp([3, 4, 2], rng), 2)
    data = [(np.abs(rng.normal(size=(4, 3))) + 1.0, rng.integers(0, 2, size=4))
            for _ in range(2)]
    t = SplitTrainer(model, data, ProtocolConfig(kind="psl", clients=2, batch_size=4))
    t.clients[0].layers[0].weight[:] = 1e308
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=r"output of layer 0 \(dense\)"):
            t.run_epoch(0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_client_features_rejected_at_build(bad):
    rng = np.random.default_rng(8)
    model = splitting.SplitModel(nn.build_mlp([3, 4, 2], rng), 2)
    data = [(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4)) for _ in range(2)]
    data[1][0][2, 1] = bad
    with pytest.raises(NumericError, match="features of client 1"):
        SplitTrainer(model, data, ProtocolConfig(kind="psl", clients=2, batch_size=4))


@pytest.mark.parametrize("label", [-1, 2])
def test_out_of_range_labels_rejected_at_build(label):
    rng = np.random.default_rng(9)
    model = splitting.SplitModel(nn.build_mlp([3, 4, 2], rng), 2)
    data = [(rng.normal(size=(4, 3)), np.array([0, 1, label, 0])) for _ in range(2)]
    with pytest.raises(InputError, match="client 0 needs a label in"):
        SplitTrainer(model, data, ProtocolConfig(kind="ssl", clients=2, batch_size=4))


# Segment sizes whose boundaries fall inside a chunk, on a chunk edge, and
# past the first chunk.
WALK_SIZES = [1, 5, nn.ADAM_CHUNK // 2 + 3, nn.ADAM_CHUNK - 1, nn.ADAM_CHUNK, nn.ADAM_CHUNK + 9]


@settings(max_examples=40, deadline=None)
@given(
    optimizer=st.sampled_from(["sgd", "adam"]),
    sizes=st.lists(st.sampled_from(WALK_SIZES), min_size=1, max_size=3),
    start=st.sampled_from([0, 1, 50, 354, 355, 356, 400, 5000]),
    steps=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
@example(optimizer="adam", sizes=[5, nn.ADAM_CHUNK + 9], start=50, steps=2, seed=0)
def test_one_walk_equals_per_segment_adam_update(optimizer, sizes, start, steps, seed):
    """One buffer step over 1-3 segments equals ``optimizer_step`` (or an SGD
    step) on each segment alone, and Adam equals the textbook formula, also
    once 1 - beta1**t has rounded to 1.0 (t >= 356)."""
    rng = np.random.default_rng(seed)
    lrs = [1e-2, 3.7e-2, 2.5e-3][: len(sizes)]
    buf = nn.ParamBuffer(sizes, optimizer)
    buf.params[:] = rng.normal(size=buf.params.size)
    ends = np.cumsum([0, *sizes]).tolist()
    cuts = list(zip(ends, ends[1:]))
    want = [buf.params[lo:hi].copy() for lo, hi in cuts]
    states = [nn.init_optimizer(optimizer, [w]) for w in want]
    books = [{"t": start, "m": [np.zeros(n)], "v": [np.zeros(n)]} for n in sizes]
    if optimizer == "adam":
        warm = [rng.random(n) for n in sizes]
        for i, (lo, hi) in enumerate(cuts):
            buf.opt.m[i][:], buf.opt.v[i][:] = warm[i], warm[i] ** 2
            states[i].m[0][:], states[i].v[0][:] = warm[i], warm[i] ** 2
            books[i]["m"][0], books[i]["v"][0] = warm[i].copy(), warm[i] ** 2
            states[i].t = start
        buf.opt.t = start
    book = [w.copy() for w in want]
    for _ in range(steps):
        buf.grads[:] = rng.normal(size=buf.grads.size)
        buf.step(lrs if len(sizes) > 1 else lrs[0])
        for i, (lo, hi) in enumerate(cuts):
            g = buf.grads[lo:hi]
            if optimizer == "adam":
                nn.optimizer_step([want[i]], [g], states[i], lrs[i])
                (book[i],) = textbook_adam([book[i]], [g], books[i], lrs[i])
            else:
                want[i] -= lrs[i] * g
                book[i] = want[i]
    for i, (lo, hi) in enumerate(cuts):
        assert np.array_equal(buf.params[lo:hi], want[i])
        assert np.array_equal(buf.params[lo:hi], book[i])
        if optimizer == "adam":
            assert buf.opt.t == states[i].t == start + steps
            assert np.array_equal(buf.opt.m[i], states[i].m[0])
            assert np.array_equal(buf.opt.v[i], states[i].v[0])
            assert np.array_equal(buf.opt.m[i], books[i]["m"][0])
            assert np.array_equal(buf.opt.v[i], books[i]["v"][0])


def test_bias_corrections_reach_one():
    """The step where ``optimizer_step`` starts to skip the beta1 divide."""
    assert 1.0 - 0.9**355 != 1.0 and 1.0 - 0.9**356 == 1.0


@pytest.mark.parametrize(("moment", "extra"), [("m", 1), ("m", -1), ("v", 1), ("v", -1)],
                         ids=["0", "1", "2", "3"])
def test_one_walk_rejects_flat_arrays_the_arrays_do_not_tile(moment, extra):
    """A moment must be exactly as long as its param, so no element outside
    every segment is stepped with a stale scratch value."""
    params, grads = [np.ones(4), np.ones(3)], [np.ones(4), np.ones(3)]
    state = nn.init_optimizer("adam", params)
    getattr(state, moment)[1] = np.zeros(3 + extra)
    with pytest.raises(InputError, match="as long as"):
        nn.optimizer_step(params, grads, state, 1e-3)
    assert state.t == 0


# At 8 elements a chunk: segment edges inside the first chunk, on a chunk
# edge, past the first chunk, and several in one chunk.
SMALL_CHUNK_SIZES = [[3, 10], [8, 8], [13, 6], [5, 3, 17], [1, 23, 2]]


@pytest.mark.parametrize("sizes", SMALL_CHUNK_SIZES, ids=str)
@pytest.mark.parametrize("start", [0, 1, 354, 355, 356, 400])
def test_prebuilt_walk_at_small_chunks_equals_per_segment_adam(monkeypatch, sizes, start):
    """The walk a ``ParamBuffer`` builds at construction, cut into 8-element
    chunks, equals ``optimizer_step`` on each segment alone and the textbook
    formula bit for bit, over three steps from ``start``."""
    monkeypatch.setattr(nn, "ADAM_CHUNK", 8)
    rng = np.random.default_rng(sum(sizes) * 1000 + start)
    lrs = [1e-2, 3.7e-2, 2.5e-3][: len(sizes)]
    buf = nn.ParamBuffer(sizes, "adam")
    assert len(buf._walk.chunks) == -(-sum(sizes) // 8)
    buf.params[:] = rng.normal(size=buf.params.size)
    buf.opt.t = start
    for m, v in zip(buf.opt.m, buf.opt.v):
        m[:] = rng.random(m.size)
        v[:] = m**2
    ends = np.cumsum([0, *sizes]).tolist()
    cuts = list(zip(ends, ends[1:]))
    want = [buf.params[lo:hi].copy() for lo, hi in cuts]
    book = [w.copy() for w in want]
    states = [nn.OptimizerState("adam", t=start, m=[m.copy()], v=[v.copy()])
              for m, v in zip(buf.opt.m, buf.opt.v)]
    books = [{"t": start, "m": [m.copy()], "v": [v.copy()]} for m, v in zip(buf.opt.m, buf.opt.v)]
    for _ in range(3):
        buf.grads[:] = rng.normal(size=buf.grads.size)
        buf.step(lrs)
        for i, (lo, hi) in enumerate(cuts):
            g = buf.grads[lo:hi]
            nn.optimizer_step([want[i]], [g], states[i], lrs[i])
            (book[i],) = textbook_adam([book[i]], [g], books[i], lrs[i])
    assert buf.opt.t == start + 3
    for i, (lo, hi) in enumerate(cuts):
        for got, per_segment, textbook in [(buf.params[lo:hi], want[i], book[i]),
                                           (buf.opt.m[i], states[i].m[0], books[i]["m"][0]),
                                           (buf.opt.v[i], states[i].v[0], books[i]["v"][0])]:
            assert np.array_equal(got, per_segment) and np.array_equal(got, textbook)


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3)], ids=["2-d", "stacked"])
def test_dense_forward_after_set_params_uses_the_new_weights(shape):
    """``set_params`` writes the new weights into the layer's own arrays,
    and writes into those in place show through."""
    rng = np.random.default_rng(10)
    layer = nn.Dense(rng.normal(size=shape), rng.normal(size=shape[:-1]))
    x = rng.normal(size=(*shape[:-2], 5, shape[-1]))
    layer.forward(x)
    for _ in range(2):
        w, b = rng.normal(size=shape), rng.normal(size=shape[:-1])
        nn.set_params([layer], [w, b])
        assert np.array_equal(layer.forward(x), x @ w.swapaxes(-1, -2) + b[..., None, :])
    layer.weight[:] = 0.0
    assert np.array_equal(layer.forward(x), np.broadcast_to(b[..., None, :], x.shape[:-1] + b.shape[-1:]))


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3)], ids=["2-d", "stacked"])
def test_dense_forward_reads_reassigned_attributes(shape):
    """``forward`` reads ``weight`` and ``bias`` as they are at the call:
    arrays assigned to them are the ones it uses."""
    rng = np.random.default_rng(11)
    layer = nn.Dense(rng.normal(size=shape), rng.normal(size=shape[:-1]))
    x = rng.normal(size=(*shape[:-2], 5, shape[-1]))
    layer.forward(x)
    w, b = rng.normal(size=shape), rng.normal(size=shape[:-1])
    layer.weight = w
    want = x @ w.swapaxes(-1, -2) + layer.bias[..., None, :]
    assert np.array_equal(layer.forward(x), want)
    layer.bias = b
    assert np.array_equal(layer.forward(x), x @ w.swapaxes(-1, -2) + b[..., None, :])
