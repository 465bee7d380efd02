"""The client-stacked round engine against per-client references, bit for bit.

Every reference here is the per-client loop written with 2-D calls and
whole-array temporaries, the way the engine computed before its client
axis existed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import nn, protocols, splitting
from splitsim.errors import NumericError
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
    stack = nn.LayerStack(layers[:cut], clients, "sgd")
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
    stack = nn.LayerStack(layers, clients, optimizer)
    stack.flat[:] += rng.normal(scale=0.1, size=stack.flat.shape)
    params = [nn.collect_params(stack.slot_layers(c)) for c in range(clients)]
    params = [[p.copy() for p in ps] for ps in params]
    states = [
        {"t": 0, "m": [np.zeros_like(p) for p in ps], "v": [np.zeros_like(p) for p in ps]}
        for ps in params
    ]
    for _ in range(3):
        grads = [[rng.normal(size=(clients,) + p.shape)] for p in params[0]]
        stack.step(grads, 1e-2)
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
        nn.adam_update(params, grads, state, 1e-3)
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
                    _, assigned = protocols.split_avg(
                        dict(enumerate(ups)), active, cfg.splitavg_mean
                    )
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
    splitavg_mean=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_trainer_equals_per_client_engine(
    clients, batch, cut, kind, optimizer, splitavg_mean, seed
):
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
        seed=seed, splitavg_mean=splitavg_mean,
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
