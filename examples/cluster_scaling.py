#!/usr/bin/env python
"""Scale data-parallel training of a small CNN across TaihuLight nodes.

The paper's introduction motivates swDNN as the node-level engine for
cluster-scale training; this example uses the extension package
``repro.scale`` to project weak- and strong-scaling curves.  Each node's
per-layer compute is :func:`repro.core.zoo.training_cost` (the same plan
machinery as the single-chip experiments), and the gradient allreduce is
scheduled in 1 MiB buckets on the simulated step timeline, overlapped
with the remaining backward pass.

Run:  python examples/cluster_scaling.py
"""

from repro.common.tables import TextTable
from repro.core.zoo import vgg_like_stack
from repro.scale.network import InterconnectModel
from repro.scale.report import (
    WEAK_PER_NODE_BATCH,
    strong_scaling_rows,
    weak_scaling_rows,
)

TOPOLOGY = "ring"
BUCKET_BYTES = 1 << 20
WEAK_NODES = (1, 16, 256, 4096)
STRONG_NODES = (1, 16, 256, 2048)
GLOBAL_BATCH = 2048


def main() -> None:
    net = InterconnectModel()
    stack = vgg_like_stack(batch=WEAK_PER_NODE_BATCH)
    grad_mb = sum(layer.gradient_bytes() for layer in stack) / 1e6
    print(f"model: {len(stack)} layers, {grad_mb:.1f} MB of gradients/step, "
          f"{TOPOLOGY} allreduce in {BUCKET_BYTES >> 20} MiB buckets")

    print(f"\nweak scaling (fixed {WEAK_PER_NODE_BATCH} samples per node):")
    weak = weak_scaling_rows(net, TOPOLOGY, BUCKET_BYTES, node_counts=WEAK_NODES)
    table = TextTable(["nodes", "step (ms)", "comm (ms)", "exposed (ms)",
                       "samples/s", "eff"], float_fmt="{:.2f}")
    for row in weak:
        table.add_row([row["nodes"], row["step_seconds"] * 1e3,
                       row["comm_seconds"] * 1e3,
                       row["exposed_comm_seconds"] * 1e3,
                       row["samples_per_second"], row["efficiency"]])
    print(table.render())

    print(f"\nstrong scaling (fixed global batch {GLOBAL_BATCH}):")
    table = TextTable(["nodes", "batch/node", "step (ms)", "samples/s", "eff"],
                      float_fmt="{:.2f}")
    for row in strong_scaling_rows(net, TOPOLOGY, BUCKET_BYTES,
                                   node_counts=STRONG_NODES,
                                   global_batch=GLOBAL_BATCH):
        table.add_row([row["nodes"], row["per_node_batch"],
                       row["step_seconds"] * 1e3, row["samples_per_second"],
                       row["efficiency"]])
    print(table.render())

    print("\nsensitivity: halving the interconnect bandwidth")
    slow = weak_scaling_rows(InterconnectModel(bandwidth=net.bandwidth / 2),
                             TOPOLOGY, BUCKET_BYTES, node_counts=WEAK_NODES)
    for base, degraded in zip(weak[1:], slow[1:]):
        print(f"  {base['nodes']:5d} nodes: efficiency {base['efficiency']:.2f} "
              f"-> {degraded['efficiency']:.2f}")

    hidden = [row["nodes"] for row in weak
              if row["exposed_comm_seconds"] <= 0.05 * row["compute_seconds"]]
    last = weak[-1]
    print(f"\nconclusion: the allreduce stays (almost) hidden behind backward "
          f"compute up to {max(hidden)} nodes; at {last['nodes']} nodes "
          f"{last['exposed_comm_seconds'] * 1e3:.1f} ms of it is exposed per "
          f"{last['compute_seconds'] * 1e3:.1f} ms of compute, and weak-scaling "
          f"efficiency falls to {last['efficiency']:.2f}.")


if __name__ == "__main__":
    main()
