"""Round counts of the O(h)-style algorithms on cycles of growing height.

The tree of an n-cycle is the Hamiltonian path, so h = n-1; both the
unweighted and the weighted augmentation should track 8h+16 linearly.
Run with a smaller max n if the weighted 4096 run is too slow for you.
Each row ends with the size's wall time and the process's peak resident
memory so far (ru_maxrss, which Linux gives in kilobytes), so --big shows the
4096-cycle's memory directly.
"""
import resource
import sys
import time

from treeaug import generators, unweighted, weighted

sizes = [64, 256, 1024]
if "--big" in sys.argv:
    sizes.append(4096)

print("%6s %6s %10s %10s %10s" % ("n", "h", "tap", "wtap", "8h+16"))
for n in sizes:
    g, tree = generators.gen_cycle(n)
    h = tree.height
    t = time.time()
    _, _, m1 = unweighted.augment_unweighted(g, tree)
    res = weighted.weighted_cover_distributed(g, tree)
    m2 = res["metrics"]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("%6d %6d %10d %10d %10d   (%.1fs, peak RSS %.1f MB)"
          % (n, h, m1.rounds, m2.rounds, 8 * h + 16, time.time() - t, peak_mb))
    assert m1.rounds <= 8 * h + 16 and m2.rounds <= 8 * h + 16
