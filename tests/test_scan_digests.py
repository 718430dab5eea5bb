"""Pinned SHA-256 digests of the CSVs that scan-conv, scan-flip and
sweep-alpha write at small grids.

The digests were recorded with the per-cell scalar scans that preceded the
lockstep engine, so a refactor that changes any number, iteration count or
error flag in these files fails here. If a change alters the bytes on
purpose, re-pin the digests and say why in CHANGES.md.
"""

import hashlib

import pytest

from newton_transforms.cli import main

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scan_csv_digest(name, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["--out-dir", str(tmp_path), *CASES[name], "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
