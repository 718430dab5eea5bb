"""Pinned SHA-256 digests of the CSVs that scan-conv, scan-flip and
sweep-alpha write at small grids, of the trace CSVs that `run` writes for
every schedule, of the `convexify` reports, of one `starcheck` report, and
of every file the recipes write.

The scan digests were recorded with the per-cell scalar scans that preceded
the lockstep engine. The poly:r=0.5 scan digests and fig3's r = 0.5 files
(and its full-size conv_beale_r2.csv) were re-pinned when the transforms moved
to one NumPy formula each: np.power differs from the libm pow behind
Python's ``**`` in the last bit of some values. The run and recipe digests were recorded while
run_newton still symmetrized twice per iteration and computed its range
residual inline. The forwarded run digests and table1_check.csv were
re-pinned when ForwardedSchedule began taking its scaling from the driven
solve (1 / (1 - (phi''/phi') q_L / phi')) in place of a second solve on the
base loss: scalings, and the iterates after them, move in the last bits.
The convexify report digests were recorded while the
report evaluated the loss point by point. A refactor that changes any number, iteration count or
error flag in these files fails here. If a change alters the bytes on
purpose, re-pin the digests and say why in CHANGES.md.

fig2, fig3 and fig5 are pinned at reduced grids by default; their full-size
outputs and table3 are pinned under the opt-in ``slow`` marker
(``pytest -m slow tests/test_scan_digests.py``).
"""

import hashlib

import pytest

from newton_transforms.cli import main
from newton_transforms.recipes import RECIPES

CASES = {
    "conv-beale-poly0.5": ["scan-conv", "--loss", "beale", "--transform", "poly:r=0.5",
                           "--grid=-4:4:9x-3.9:4.1:9"],
    "conv-beale-poly2": ["scan-conv", "--loss", "beale", "--transform", "poly:r=2",
                         "--grid=-4:4:9x-3.9:4.1:9"],
    "conv-beale-log1": ["scan-conv", "--loss", "beale", "--transform", "log:a=1",
                        "--grid=-4:4:9x-3.9:4.1:9"],
    "conv-beale-none": ["scan-conv", "--loss", "beale", "--grid=-4:4:9x-3.9:4.1:9"],
    "conv-cauchy1d": ["scan-conv", "--loss", "cauchy1d", "--grid=-3:3:31"],
    "conv-gp-poly0.5": ["scan-conv", "--loss", "goldstein_price", "--transform", "poly:r=0.5",
                        "--grid=-2:2:9x-2.1:1.9:9"],
    "conv-gp-poly2": ["scan-conv", "--loss", "goldstein_price", "--transform", "poly:r=2",
                      "--grid=-2:2:9x-2.1:1.9:9"],
    "conv-gp-log1": ["scan-conv", "--loss", "goldstein_price", "--transform", "log:a=1",
                     "--grid=-2:2:9x-2.1:1.9:9"],
    "flip-beale-poly0.25": ["scan-flip", "--loss", "beale", "--transform", "poly:r=0.25",
                            "--grid=-4:4:25x-3.9:4.1:25", "--seed", "1"],
    "flip-beale-log1": ["scan-flip", "--loss", "beale", "--transform", "log:a=1",
                        "--grid=-4:4:25x-3.9:4.1:25", "--seed", "1"],
    "flip-gp-poly0.25": ["scan-flip", "--loss", "goldstein_price", "--transform", "poly:r=0.25",
                         "--grid=-2:2:25x-2.1:1.9:25", "--seed", "2"],
    "flip-gp-log1": ["scan-flip", "--loss", "goldstein_price", "--transform", "log:a=1",
                     "--grid=-2:2:25x-2.1:1.9:25", "--seed", "2"],
    "sweep-beale": ["sweep-alpha", "--loss", "beale", "--x0", "1,1.2", "--alphas", "0.2:2:0.2",
                    "--max-iters", "30"],
    "sweep-gp": ["sweep-alpha", "--loss", "goldstein_price", "--x0=0.1,-0.9", "--alphas", "0.2:2:0.2",
                 "--max-iters", "30"],
    "sweep-polytope3": ["sweep-alpha", "--loss", "polytope:p=3:seed=1", "--alphas", "1.5:2.5:0.1",
                        "--max-iters", "25"],
    "run-const-none": ["run", "--loss", "rosenbrock", "--x0=-1.2,1", "--schedule", "const:1"],
    "run-const-exp": ["run", "--loss", "rosenbrock", "--transform", "exp:a=0.05", "--x0=-1.2,1",
                      "--schedule", "const:0.5", "--max-iters", "40"],
    # phi' overflows at the start: the run ends diverged at k = 0
    "run-const-exp-overflow": ["run", "--loss", "goldstein_price", "--transform", "exp:a=0.02", "--x0=-1.2,1.0",
                               "--schedule", "const:0.5", "--max-iters", "12"],
    "run-induced-log": ["run", "--loss", "beale", "--transform", "log:a=1", "--x0", "1,1.2",
                        "--schedule", "induced:0.5", "--max-iters", "40"],
    "run-induced-star": ["run", "--loss", "cauchy1d", "--transform", "star:cauchy", "--x0", "0.8",
                         "--schedule", "induced:1"],
    "run-forwarded-poly": ["run", "--loss", "goldstein_price", "--transform", "poly:r=2", "--x0=0.1,-0.9",
                           "--schedule", "forwarded:0.5", "--max-iters", "40"],
    "run-forwarded-sigmoid": ["run", "--loss", "beale", "--transform", "sigmoid", "--x0", "1,1.2",
                              "--schedule", "forwarded:1", "--max-iters", "30"],
    "run-armijo-none": ["run", "--loss", "beale", "--x0", "1,1.2", "--schedule", "armijo", "--max-iters", "40"],
    "run-armijo-linear": ["run", "--loss", "rosenbrock", "--transform", "linear:a=2:b=1", "--x0=-1.2,1",
                          "--schedule", "armijo", "--max-iters", "60"],
    "convexify-cauchy1d": ["convexify", "--loss", "cauchy1d", "--x0", "2", "--grid=-2:2:0.01"],
    # the grid holds the kink x = 0, where the counterexample's Hessian is undefined: no row
    "convexify-counterexample": ["convexify", "--loss", "counterexample", "--x0", "2",
                                 "--grid=-0.5:1.5:0.25"],
    "starcheck-welsh1d": ["starcheck", "--loss", "welsh1d", "--points", "20", "--seed", "0"],
}

DIGESTS = {
    "convexify-cauchy1d": "9366d0bd31493e6edb4e275175617d588c2232339ea37920782bdb89ad47e96d",
    "convexify-counterexample": "511090e5945e4bad0461bee09cdf3c6f2cc0c8cef6725b45d4fa7e0e9b761783",
    "conv-beale-log1": "92acc3021baf268dca4bd498ac45cc862ade46ede9ee3698465f7a05e467c4de",
    "conv-beale-none": "9a1ef0dbc08ff08d09f691390bd2a6bbeee3127acc64fd49807b48460b3d586f",
    "conv-beale-poly0.5": "81f0b5e45caa54cd730562d58c48dbe815efdbd22fea219b8dd1a04a41769eaa",
    "conv-beale-poly2": "cce477a8758362b837c3283c7ede7b2f3b8905e8aafcb5047695b5f6d7ed2118",
    "conv-cauchy1d": "861d4ba57ffa60da12747ba5b914aa36653e54fc307443ee760d3a992468e59a",
    "conv-gp-log1": "de20a513cd178df634d135018cf9ce7e16cc5581161c86131e193c204192f6cc",
    "conv-gp-poly0.5": "651693185e48aa870be57e111e04d7091f1b7a34b433e931077831fec7bfaed0",
    "conv-gp-poly2": "8c423f8474311d3210e0abd4017f5365f25d52d176bdc504fae9ad258ec36611",
    "flip-beale-log1": "45e9c81dfe9d2f0ac51e50859079fe4ba1b590615715b8abf8d5824a69ae0ddb",
    "flip-beale-poly0.25": "c4efb936b59668631698f5796c202602d8dc3283ae2d101c9fd59c63f0e82159",
    "flip-gp-log1": "6c37ad236de32ae790a14052a5f249b404281402727c925513ee80f9499acc21",
    "flip-gp-poly0.25": "56879e0118a440e157baef25e571f85495ae6fc9061ea81d83631367ad3206db",
    "sweep-beale": "70ecee5a1437392a6d4b465667a164bd0bf9c17053850c082918296cb2b24a30",
    "sweep-gp": "a01c490dcced55b139fd5b6fc61a1caf470347d1966223d40b93bda5c7351ac5",
    "sweep-polytope3": "5fcc6e566268dd0ecf1c02734017149282e74e046f773407614a4c1add9c920d",
    "run-armijo-linear": "332b343fdfd32426c1d1bb57decad29e71a5fcce68c895e81893bd9020388a99",
    "run-armijo-none": "509dc3cfbc2ca9ce4da8c39da7e4fad810ed47f04522131ee1bae7f75d185042",
    "run-const-exp": "fa89fc914435b12e402d8eb6c9a47e7ec30d3698560bd91c5dfb0925191482a0",
    "run-const-exp-overflow": "b532263dd6f66c8e98d974b9ff3106010bc660bf30c77f46e6bb3ad5c30a884c",
    "run-const-none": "1668a0f8624e24fac3a61bdf1f70b9a48ecd1a7c44cdd09b77efd1084ef18994",
    "run-forwarded-poly": "096b09116e5237d089e10d1e1d3d1f0bbe7f42156625b9f24f839a10dec07aee",
    "run-forwarded-sigmoid": "99174b5ee688e6a2f60973bc3007a02145c6674aa8ae45cd4c43344db12d51bb",
    "run-induced-log": "87fedc5c02def30c745125cb5c39bb9ddb40492298763b99331e714b42c25861",
    "run-induced-star": "c68757399c0e56c08a7451140505c48dfc180571a70f849458abf9c659c89740",
    "starcheck-welsh1d": "6a49665332e96574b3d13ee0deb3b7f135a86e00ee804f7ea788e3020fd9f297",
}

#: Recipe keyword arguments; fig2, fig3 and fig5 run at reduced grids.
RECIPE_SIZES = {"fig1": {}, "fig2": {"n": 40}, "fig3": {"n": 20}, "fig5": {"n": 40}, "table1_check": {},
                "polytope_sweep": {}, "lemma3_demo": {}, "convexify_cauchy": {}}

RECIPE_DIGESTS = {
    "convexify_cauchy": {
        "convexify_cauchy.txt": "50234a312029d4b41e2ce7ad76a5190343f0ca69deee2b12752636198b092813",
    },
    "fig1": {
        "fig1_summary.txt": "59b60345b9c68e2e5738d35ba4df77551c48f221272a5d58f21acda9f82d8ddf",
        "trace_L.csv": "e4bc705bc4c0c5260ed132120fe122bdbd7518dcc82b72545c75845c11d854c6",
        "trace_f_diverges.csv": "e0e17a4bb092748622dc493cd33a82852fb241e8b948e8a5a2ace3e45ad4d11f",
        "trace_induced.csv": "c68757399c0e56c08a7451140505c48dfc180571a70f849458abf9c659c89740",
    },
    "fig2": {
        "flip_poly_r0.25_beale.csv": "213ec3c46e7aaaf332822ac4e96dda602bd40b0065121e5cbcf01f98470027b6",
        "flip_poly_r0.25_goldstein_price.csv": "9bbd87485fd36c1ac5f2691639cfc85192fbbf60efe2527c84d32c680bfe4d6b",
    },
    "fig3": {
        "conv_beale_r0.5.csv": "6aabe9f25d31aa37da14c5b0209ef9d89f5585097d0d10226927736258ed4c53",
        "conv_beale_r1.csv": "2bc9c9cc4d15833ee44db16410c5136a80a6b25707b80cae7472da170ad76e82",
        "conv_beale_r2.csv": "734cdb56515d79c3f701f4671629d05905415d00fe6d443e3b8ed9c55dffe640",
        "conv_goldstein_price_r0.5.csv": "b2f365049558b1f29b0309e24fe9e156ff0209dde84cd829ed91063b1c27fc25",
        "conv_goldstein_price_r1.csv": "8863c5ceeda68154ca8e7e3cd905fc68c5fd33d540c4b4ea3b0acbd5f8017eaa",
        "conv_goldstein_price_r2.csv": "2e07540453a49ab35824a3feb5d8393d1c3fd985eb2e2831b1a58b5a4cac09d5",
        "fig3_summary.txt": "a0f53097cde77297e220b76db0648554e0679c72c01dbaeddfee6af04e4f1dac",
    },
    "fig5": {
        "flip_log_a1_beale.csv": "4d451118f3018e3ce9f8e3484865d896c723852aaa965d043eeb919974adc2e0",
        "flip_log_a1_goldstein_price.csv": "098fa2f82c824d40eefe4f9dd92d037ce65b7b6da9df494c91c82da582834aaa",
    },
    "lemma3_demo": {
        "lemma3_demo.txt": "c4dc2ce397c005896284fe019493f55eb8f87b9561c3e750b31c8ea7a21ff8d2",
    },
    "polytope_sweep": {
        "polytope_sweep.csv": "75a33534eb7ed2475bbd2124e3db148afd2bf5bab8468e2d31acb7169c7cfe31",
        "sweep_p2.csv": "d9f8364e1987910e9fd65040666dd0bfce0fd120800ed756284eb02ecb96005a",
        "sweep_p3.csv": "4ed9d6c582d0f40a370b6122730daad40ff13aa0bdff2bf3ae712f961e135cbe",
        "sweep_p4.csv": "244868981f29f5b78e5d173552ab4ccea8c78f90e153388a02c81db0d14023ee",
        "sweep_p5.csv": "6cd82ca7cbc97c82cb7908ff5d3be6df1ee5815b2f6c16ef210452367bfb22c3",
    },
    "table1_check": {
        "table1_check.csv": "6a104668e3e1b5b2759704c207ab6c7e7a0eb41885af2f8a4b464d67b9b88ce4",
    },
}

FULL_SIZE_RECIPE_DIGESTS = {
    "fig2": {
        "flip_poly_r0.25_beale.csv": "a0563e17d636385f70878fe954d5fb2075452fb7dba5ce36763c6f6f8d09b66a",
        "flip_poly_r0.25_goldstein_price.csv": "dd18fda28e41e84d25f95d7131064c2e55c7fed508f90fdae33d420ebdf2f5de",
    },
    "fig3": {
        "conv_beale_r0.5.csv": "0b953b151513878913ef8dceef4f0b0ce24f31437e65536fc44ef09b43f38ba0",
        "conv_beale_r1.csv": "199d7fabad9f11267c2787146c6c91077b9934a5528fc04254d5025193e01f88",
        "conv_beale_r2.csv": "0072bf1ccb89c9b4f2b8c1ac462924b4dc868558b927f0455969266968976297",
        "conv_goldstein_price_r0.5.csv": "3cde2aa59be52dcf2769d38cd133b2ceefe433f0e835efd765aafd63dc903075",
        "conv_goldstein_price_r1.csv": "d568a48accd6efc60e5c37a7a9cd681cf6c350280e10aaabed5e354fc36f4c2a",
        "conv_goldstein_price_r2.csv": "52575bf6a9a4bea8beb12059973728d7d45b2bd5e7d854e674c6ffef162125a3",
        "fig3_summary.txt": "6433a989cee54d751e4e929e9b29874924f1c07f2251dcbd9cae35c400144bcd",
    },
    "fig5": {
        "flip_log_a1_beale.csv": "3364424a6bbac27139eea04c3bc5181499babec0af81fed31a247a13227824f8",
        "flip_log_a1_goldstein_price.csv": "20e5dca4dba2c9495cdcf4441fffdcc9354c9d0454db46226777eb7168933156",
    },
    "table3": {
        "table3_radii.csv": "ddf0efa25ac179bd8de15b2a2df87510f69485c83097da1109e606deefedcc8a",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scan_csv_digest(name, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["--out-dir", str(tmp_path), *CASES[name], "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


def _recipe_digests(name, out_dir, **kwargs):
    RECIPES[name](str(out_dir), **kwargs)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", sorted(RECIPE_DIGESTS))
def test_recipe_digest(name, tmp_path):
    assert _recipe_digests(name, tmp_path, **RECIPE_SIZES[name]) == RECIPE_DIGESTS[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FULL_SIZE_RECIPE_DIGESTS))
def test_full_size_recipe_digest(name, tmp_path):
    assert _recipe_digests(name, tmp_path) == FULL_SIZE_RECIPE_DIGESTS[name]
