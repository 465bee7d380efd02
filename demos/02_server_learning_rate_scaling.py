"""How the server learning rate scales with the client count.

The server trains on the concatenation of every client's batch, so its
effective batch is C times a client's. The scaling rule compensates with
eta_s = eta_0 * C**alpha while clients keep eta_0. This script prints the
rate table and then shows the accuracy effect of alpha on a shared task.

Note the blow-up row: at 20 clients and alpha=2.0 the server rate reaches
0.4, far outside adam's comfortable range, which is why large client
counts call for small exponents.
"""

import numpy as np

from splitsim import (
    ProtocolConfig,
    SplitModel,
    SplitTrainer,
    build_mlp,
    keyed_rng,
    partition_iid,
    split_lr,
    split_validation,
    synth_dataset,
)

print("rate table (eta_0 = 1e-3):")
print(f"{'C':>4} " + "".join(f"  alpha={a:<4}" for a in (0.0, 0.5, 1.0, 2.0)))
for clients in (1, 4, 8, 20):
    cells = []
    for alpha in (0.0, 0.5, 1.0, 2.0):
        _, eta_s = split_lr(1e-3, clients, alpha)
        cells.append(f"{eta_s:10.4g}")
    print(f"{clients:>4} " + " ".join(cells))

SEED = 11
CLIENTS = 8
EPOCHS = 4

full = synth_dataset(n_classes=8, per_class=900, dim=24, separation=2.2, seed=SEED)
train, val = split_validation(full, n_val=600, seed=SEED)
indices = partition_iid(train, clients=CLIENTS, per_client=800, seed=SEED)
shards = [(train.features[ix], train.labels[ix]) for ix in indices]

print(f"\naccuracy after {EPOCHS} epochs, {CLIENTS} clients (early/steep phase):")
for alpha in (0.0, 0.5, 1.0):
    config = ProtocolConfig(
        kind="slr", clients=CLIENTS, lr_exponent=alpha,
        batch_size=8, epochs=EPOCHS, seed=SEED,
    )
    rng = keyed_rng(SEED, 0)
    model = SplitModel(build_mlp([24, 32, 16, 8], rng), cut_index=2)
    trainer = SplitTrainer(model, shards, config, val_data=(val.features, val.labels))
    metrics = trainer.run()
    print(f"  alpha={alpha:<4} server lr {metrics[-1].server_lr:8.4g}  "
          f"final accuracy {metrics[-1].val_accuracy:.3f}")

print("\nthe scaled server rate speeds up the phase where the server is the")
print("bottleneck; alpha=0 is the no-scaling baseline.")
