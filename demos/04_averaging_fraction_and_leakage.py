"""The active fraction phi: accuracy, stability, and information leakage.

Sweeping phi on one task shows three regimes:
  - moderate phi couples the clients' backward passes and nudges accuracy up;
  - phi = 1.0 with an aggressive server rate destabilizes training
    (every client follows the same broadcast gradient, so there is no
    heterogeneity left to damp a bad direction);
  - higher phi lowers the mutual-information score between raw inputs and
    the smashed activations an honest-but-curious server observes.

Leakage here is the histogram-MI proxy over sampled (input feature,
cut unit) pairs, not a reconstruction attack.
"""

from splitsim import (
    ProtocolConfig,
    SplitModel,
    SplitTrainer,
    build_mlp,
    draw_pairs,
    keyed_rng,
    smashed_leakage_score,
)
from splitsim.data import arrange, synth_blocks

SEED = 4
CLIENTS = 20
EPOCHS = 14

full, order = synth_blocks(n_classes=6, per_class=601, dim=16, separation=4.5, seed=SEED)
val, clients = arrange(full, n_val=400, clients=CLIENTS, per_client=160,
                       val_seed=SEED, part_seed=SEED, order=order)
shards = [(c.features, c.labels) for c in clients]
probe = val.features[:256]
# The same 64 (input feature, cut unit) pairs score every phi; the cut
# (layer 6 of the 16-32-32-24-6 stack) is 24 units wide.
pairs = draw_pairs(probe.shape[1], 24, n_pairs=64, seed=SEED)

print(f"{CLIENTS} clients, alpha=1.0 (server lr {1e-3 * CLIENTS:g}), "
      f"{EPOCHS} epochs\n")
print(f"{'phi':>5} {'final acc':>10} {'leakage (nats)':>15}")
for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
    config = ProtocolConfig(
        kind="sglr", clients=CLIENTS, active_fraction=phi, lr_exponent=1.0,
        batch_size=8, epochs=EPOCHS, seed=SEED,
    )
    rng = keyed_rng(SEED, 0)
    model = SplitModel(build_mlp([16, 32, 32, 24, 6], rng), cut_index=6)
    trainer = SplitTrainer(model, shards, config, val_data=(val.features, val.labels))
    metrics = trainer.run()
    score = smashed_leakage_score(trainer.clients[0].layers, probe, bins=16, pairs=pairs)
    print(f"{phi:>5.2f} {metrics[-1].val_accuracy:>10.3f} {score:>15.4f}")
