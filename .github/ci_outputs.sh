#!/usr/bin/env bash
# CI's byte checks, runnable from a checkout.  From the repository root:
#
#   bash .github/ci_outputs.sh TAG
#
# writes the outputs below into threads-one/ (one BLAS/OpenMP thread) and
# threads-default/ (the default), with the work directories threads-*.wide
# and threads-*.design next to them; requires the two to hold the same files,
# byte for byte; and writes their checksums to sha256-TAG.txt, which CI
# compares across Python versions.  Any difference, or a command that fails
# without the report its guard expects, exits nonzero.
#
# The noisy blocks' 2x2 products and gain_set go through BLAS, whose
# threading must not move a bit: figures 14 to 18 (14 to 16 take each
# strategy bound once per family, and 14 its two-user searches in
# lockstep), figure 14 again from N = 10 to 1e14 (searches that cannot
# cross, quantiles whose windows widen or go to the scalar function),
# two visibility sweeps and two verify runs, at seed 3, with one
# BLAS/OpenMP thread and with the default; then the benchmark's
# verify-gate pair, whose simulations run one after another in one
# thread, each drawing its statistic from the law of its sum (the
# read binomials' pmfs convolved by np.convolve):
# a 16-bit lane of a 64-bit random word per trial, mapped through a
# guide table over that law's cdf (plus one uniform where the lane's
# cell holds a cumulative sum), and the Reck and Clements designs of
# the DFT at K = 16 and 64.
set -e
tag=${1:?usage: bash .github/ci_outputs.sh TAG}

outputs() {  # outputs DIR ENV-ARGS...: the commands into DIR
  dir=$1; shift
  for id in 14 15 16 17 18; do
    env "$@" PYTHONPATH=src python -m multiqf.cli figure --id "$id" --seed 3 --out-dir "$dir"
  done
  env "$@" PYTHONPATH=src python -m multiqf.cli figure --id 14 --n-min 10 --n-max 1e14 \
    --points-per-decade 2 --seed 3 --out-dir "$dir.wide"
  for f in csv dat; do mv "$dir.wide/figure14.$f" "$dir/figure14-wide.$f"; done
  env "$@" PYTHONPATH=src python -m multiqf.cli visibility --k-grid 2:30 --seed 3 \
    --out "$dir/visibility-tree.csv"
  env "$@" PYTHONPATH=src python -m multiqf.cli visibility --design generalized-bs-reck \
    --k-grid 2:12 --seed 3 --out "$dir/visibility-reck.csv"
  env "$@" PYTHONPATH=src python -m multiqf.cli verify --seed 3 --out "$dir/verify.json"
  # exits 1 with its report written: last-only fails at K = 7 and 8
  env "$@" PYTHONPATH=src python -m multiqf.cli verify --k-grid 2:16 --trials 20000 \
    --p-error 1e-2 --seed 3 --out "$dir/verify-k16.json" || test -s "$dir/verify-k16.json"
  # both exit 1 with their reports written: last-only fails at K = 5
  # and 6, and the sabotaged bounds fail
  env "$@" PYTHONPATH=src python -m multiqf.cli verify --k-grid 2:16 --trials 200000 \
    --p-error 1e-3 --seed 3 --out "$dir/verify-gate.json" || test -s "$dir/verify-gate.json"
  env "$@" PYTHONPATH=src python -m multiqf.cli verify --k-grid 2:16 --trials 20000 \
    --p-error 1e-3 --sabotage alpha2/4 --seed 3 --out "$dir/verify-sabotage.json" \
    || test -s "$dir/verify-sabotage.json"
  # the meshes' nulling goes through BLAS products (Reck's batched
  # 2x2 matmul, Clements' g.dot); each design's two files are moved
  # into DIR under names of their own
  for design in gbs-reck gbs-clements; do
    for k in 16 64; do
      env "$@" PYTHONPATH=src python -m multiqf.cli design --design "$design" --k "$k" \
        --out-dir "$dir.design"
      for f in matrix layout; do mv "$dir.design/$f.json" "$dir/$design-$k-$f.json"; done
    done
  done
}

outputs threads-one OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
outputs threads-default -u OPENBLAS_NUM_THREADS -u OMP_NUM_THREADS
test "$(ls threads-one)" = "$(ls threads-default)"
for f in $(ls threads-one); do cmp "threads-one/$f" "threads-default/$f"; done
(cd threads-one && sha256sum *) > "sha256-$tag.txt"
cat "sha256-$tag.txt"
