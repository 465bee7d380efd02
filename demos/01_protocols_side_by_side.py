"""Train every protocol on the same federated task and compare.

Five clients each hold an IID shard of a synthetic 6-class problem. All
protocols start from identical weights and see identical batch order, so
the differences below come from the protocol mechanics alone:

  ssl   one segment travels client to client, server updated per batch
  psl   clients in parallel, server takes one delta-combined step per round
  sfl   psl plus weight averaging of the client segments after each round
  sgl   psl with the active clients' cut gradients averaged at the server
  sglr  sgl plus a power-law-scaled server learning rate
  fl    federated averaging over full models (the communication-heavy ceiling)
"""

import numpy as np

from splitsim import (
    ProtocolConfig,
    SplitModel,
    SplitTrainer,
    build_mlp,
    keyed_rng,
    partition_iid,
    split_validation,
    synth_dataset,
)

CLIENTS = 5
SEED = 7
EPOCHS = 10

full = synth_dataset(n_classes=6, per_class=300, dim=16, separation=3.0, seed=SEED)
train, val = split_validation(full, n_val=300, seed=SEED)
indices = partition_iid(train, clients=CLIENTS, per_client=240, seed=SEED)
shards = [(train.features[ix], train.labels[ix]) for ix in indices]

print(f"{CLIENTS} clients x 240 samples, validation {len(val)}, {EPOCHS} epochs\n")

results = {}
for kind in ("ssl", "psl", "sfl", "sgl", "sglr", "fl"):
    config = ProtocolConfig(
        kind=kind,
        clients=CLIENTS,
        active_fraction=0.6,
        lr_exponent=0.5,
        batch_size=8,
        epochs=EPOCHS,
        seed=SEED,
    )
    rng = keyed_rng(SEED, 0)
    model = SplitModel(build_mlp([16, 32, 24, 6], rng), cut_index=2)
    trainer = SplitTrainer(model, shards, config, val_data=(val.features, val.labels))
    metrics = trainer.run()
    results[kind] = metrics
    trace = " ".join(f"{m.val_accuracy:.3f}" for m in metrics[:: max(1, EPOCHS // 5)])
    print(f"{kind:>5}  final {metrics[-1].val_accuracy:.3f}   trace {trace}"
          f"   (server lr {metrics[-1].server_lr:g})")

print("\nsglr uses the scaled server rate AND the averaged gradient;")
print("psl with both mechanisms disabled is the baseline it improves on.")
best = max(results, key=lambda k: results[k][-1].val_accuracy)
print(f"best final accuracy this run: {best}")
