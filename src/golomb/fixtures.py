"""Built-in reference data so reproduction checks need no external files."""

from golomb.mixed_graphs import MixedGraph

# Golomb ruler counts for m = 3 gaps (four markings), lengths 6..35.
KNOWN_COUNTS_M3 = {
    6: 2, 7: 6, 8: 8, 9: 18, 10: 16,
    11: 30, 12: 34, 13: 48, 14: 48, 15: 72,
    16: 72, 17: 96, 18: 98, 19: 126, 20: 128,
    21: 162, 22: 160, 23: 198, 24: 202, 25: 240,
    26: 240, 27: 288, 28: 288, 29: 336, 30: 338,
    31: 390, 32: 392, 33: 450, 34: 448, 35: 510,
}

# A triangle with one arc 1 -> 2 and undirected edges {1,3}, {2,3}.
TRIANGLE = MixedGraph(3, edges=((1, 3), (2, 3)), arcs=((1, 2),))

FIXTURE_GRAPHS = {"triangle": TRIANGLE}
