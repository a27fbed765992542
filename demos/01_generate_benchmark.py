"""Generate a weighted benchmark network with planted communities.

The generator draws power-law degrees and community sizes, wires the graph so
a chosen fraction of links (mu_t) crosses community borders, then fits edge
weights so a chosen fraction of node strength (mu_w) crosses them too.
"""

from commselect import GenParams, generate, measured_mixing
from commselect.graph import save_edge_list, save_partition

params = GenParams(
    n=100,
    mu_t=0.2,   # 20% of each node's links leave its community (roughly)
    mu_w=0.4,   # 40% of each node's strength flows over those links
    avg_k=25.0,
    seed=7,
)
net = generate(params)

print(f"nodes:           {net.graph.n}")
print(f"edges:           {net.graph.edge_count}")
print(f"communities:     {net.truth.community_count} "
      f"(sizes {[len(m) for m in net.truth.members()]})")
print(f"target mu_t:     {params.mu_t}   achieved: {net.achieved_mu_t:.4f}")
print(f"target mu_w:     {params.mu_w}   achieved: {net.achieved_mu_w:.4f}")

# the achieved values are recomputable from the artifacts themselves
assert measured_mixing(net.graph, net.truth) == (net.achieved_mu_t,
                                                 net.achieved_mu_w)

deg, strength = net.graph.degree(0), net.graph.strength(0)
print(f"node 0:          degree {deg}, strength {strength:.2f}")

save_edge_list(net.graph, "benchmark.edges",
               header_comments=[f"achieved_mu_t {net.achieved_mu_t:.9g}",
                                f"achieved_mu_w {net.achieved_mu_w:.9g}"])
save_partition(net.truth, "benchmark.truth")
print("wrote benchmark.edges / benchmark.truth")
