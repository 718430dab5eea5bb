"""Pinned SHA-256 digests of the CSVs that scan-conv, scan-flip and
sweep-alpha write at small grids, of the trace CSVs that `run` writes for
every schedule, and of every file the recipes write.

The scan digests were recorded with the per-cell scalar scans that preceded
the lockstep engine. The run and recipe digests were recorded while
run_newton still symmetrized twice per iteration and computed its range
residual inline. A refactor that changes any number, iteration count or
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
}

DIGESTS = {
    "conv-beale-log1": "92acc3021baf268dca4bd498ac45cc862ade46ede9ee3698465f7a05e467c4de",
    "conv-beale-none": "9a1ef0dbc08ff08d09f691390bd2a6bbeee3127acc64fd49807b48460b3d586f",
    "conv-beale-poly0.5": "cab109a40d63294b0978115221b1c8c142d0931e40eeb1642c36e95fcb05090e",
    "conv-beale-poly2": "cce477a8758362b837c3283c7ede7b2f3b8905e8aafcb5047695b5f6d7ed2118",
    "conv-cauchy1d": "8da4a447aa9b0efcb4deb98685fb830e7242b4c4b5a96fa4d58fdd81d8cc8493",
    "conv-gp-log1": "de20a513cd178df634d135018cf9ce7e16cc5581161c86131e193c204192f6cc",
    "conv-gp-poly0.5": "161076ca706005486bf9c3772739a389b49bd05a129d9ed3590c6b0bab828ba4",
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
    "run-forwarded-poly": "afab7420d29cadd9b5d301c2c6308039e97752a4c2e1f48537430506e2ffcfd2",
    "run-forwarded-sigmoid": "b41b4f03ea763694db1a9bc7c9db44fb2f2d8f648ae0c179b438cc555dfc79cd",
    "run-induced-log": "87fedc5c02def30c745125cb5c39bb9ddb40492298763b99331e714b42c25861",
    "run-induced-star": "d5acbe46714a0cb5481d2d0408cd3b9f90d6cda2a8cbaf4b92bf491db9a1e78d",
}

#: Recipe keyword arguments; fig2, fig3 and fig5 run at reduced grids.
RECIPE_SIZES = {"fig1": {}, "fig2": {"n": 40}, "fig3": {"n": 20}, "fig5": {"n": 40}, "table1_check": {},
                "polytope_sweep": {}, "lemma3_demo": {}, "convexify_cauchy": {}}

RECIPE_DIGESTS = {
    "convexify_cauchy": {
        "convexify_cauchy.txt": "50234a312029d4b41e2ce7ad76a5190343f0ca69deee2b12752636198b092813",
    },
    "fig1": {
        "fig1_summary.txt": "6f11588711c6f9bd06468a39c32b781329a54eee86408e19e27a023c393663f3",
        "trace_L.csv": "1a53f344e4b4a5b8e89ab166eddcaea3eef65f0d8a1c11ec5cd6826e83f2ca25",
        "trace_f_diverges.csv": "d6b17f65a1559c7f6ea53178e7f0d1a22ba19a07d2251f25026e5cc183e1ea43",
        "trace_induced.csv": "d5acbe46714a0cb5481d2d0408cd3b9f90d6cda2a8cbaf4b92bf491db9a1e78d",
    },
    "fig2": {
        "flip_poly_r0.25_beale.csv": "213ec3c46e7aaaf332822ac4e96dda602bd40b0065121e5cbcf01f98470027b6",
        "flip_poly_r0.25_goldstein_price.csv": "9bbd87485fd36c1ac5f2691639cfc85192fbbf60efe2527c84d32c680bfe4d6b",
    },
    "fig3": {
        "conv_beale_r0.5.csv": "487bcb344d701273942ea189ebad2c16ebb06134eeb4fcf05daee4854fec0e7f",
        "conv_beale_r1.csv": "2bc9c9cc4d15833ee44db16410c5136a80a6b25707b80cae7472da170ad76e82",
        "conv_beale_r2.csv": "734cdb56515d79c3f701f4671629d05905415d00fe6d443e3b8ed9c55dffe640",
        "conv_goldstein_price_r0.5.csv": "969e347e1f1d57d899e75176ba52eb3f7cf80dc723dc9f39da88a4f3264fd89a",
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
        "table1_check.csv": "06a9708c6aa7ab0027b252fb788c849f738c87edf5f4218925246907b0a65ecf",
    },
}

FULL_SIZE_RECIPE_DIGESTS = {
    "fig2": {
        "flip_poly_r0.25_beale.csv": "a0563e17d636385f70878fe954d5fb2075452fb7dba5ce36763c6f6f8d09b66a",
        "flip_poly_r0.25_goldstein_price.csv": "dd18fda28e41e84d25f95d7131064c2e55c7fed508f90fdae33d420ebdf2f5de",
    },
    "fig3": {
        "conv_beale_r0.5.csv": "c1dbd5e5b4a9cd36b21169f594d7068dd75e8a182fbb57daeb3af0c2e8653371",
        "conv_beale_r1.csv": "199d7fabad9f11267c2787146c6c91077b9934a5528fc04254d5025193e01f88",
        "conv_beale_r2.csv": "818d31bfeacde5498ba58d654d8553c16ab03cc1cfde007e89d956c640f6df30",
        "conv_goldstein_price_r0.5.csv": "e44a413370b2283372729b9a1f8cc7800ee80f314508d9d71c6896c33dc3b2fd",
        "conv_goldstein_price_r1.csv": "d568a48accd6efc60e5c37a7a9cd681cf6c350280e10aaabed5e354fc36f4c2a",
        "conv_goldstein_price_r2.csv": "52575bf6a9a4bea8beb12059973728d7d45b2bd5e7d854e674c6ffef162125a3",
        "fig3_summary.txt": "6433a989cee54d751e4e929e9b29874924f1c07f2251dcbd9cae35c400144bcd",
    },
    "fig5": {
        "flip_log_a1_beale.csv": "3364424a6bbac27139eea04c3bc5181499babec0af81fed31a247a13227824f8",
        "flip_log_a1_goldstein_price.csv": "20e5dca4dba2c9495cdcf4441fffdcc9354c9d0454db46226777eb7168933156",
    },
    "table3": {
        "table3_radii.csv": "84f6367936f105ca8fbbfd78736dc018f3d11c42886d8e4e633c8d9248178d49",
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
