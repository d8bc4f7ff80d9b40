"""Golden CLI corpus: the sha256 of stdout and the exit status of fast commands.

The digests were recorded before the exact linear algebra was merged into one
elimination routine (the two ``--betti-only`` digests before the rank oracle
switched to the reduced relations, the three hull-extreme and normal-suite
digests before the normal complex moved to integer kernels, the two
``normal-complex --format json`` digests at (3,3) and (5,1) before cells were
built from closed forms, the two stellar digests at (3,3) and (2,4) before
the stellar route took the subdivided cone in closed form, the two
``chow --format json`` digests at (4,3) and (2,4) before the rank oracle's
eliminator updated rows in place, and the two full ``check`` runs at (3,2)
and (2,3), the ``fan --format json`` at (4,3) and the ``locate`` at (4,3)
before chains cached their decorated prefixes, and the ``chow --format json``
at (3,4) before the rank oracle skipped the rows the F5 criterion proves
redundant, and the ``check --suite fan`` at (3,3), the ``check --suite
tropical`` at (4,2) and the ``locate --curve`` at (4,3) before chains and
cone labels became one tuple of decorated prefixes: between them they look
up cones by chain, intersect chains, build the stellar fan and locate a
curve's chain, and the ``locate`` of a face point of the complete (2,4) fan
and the ``check --suite normal`` at (3,3) before point location and cell
membership went through the shared-row index: the first is located in a
cone's proper face, the second tests 500 points against 162 cells), and the
``locate`` at (4,4) (a one-shot scan that passes 5,197 of the 6,144 maximal
cones) and the ``check --suite normal`` at (4,3) before cones and cells
handed the shared-row index their row tests, and the full ``check`` at
(4,2) before each cone's inverse resumed from the elimination state of its
leading rays (every suite; its fan suite locates 1,000 sampled points, half
of them outside the support), and the ``fan --format json`` and the ``check
--suite fan`` at (2,4) before the chain enumerators checked nesting once per
flag (every chain and cone of the fan, and its chain and intersection
checks), and the four ``--union-extremes`` digests at (3,2), (5,2), (2,1)
and (3,0) before the union extremes switched from the hull LP over every
cell vertex to the closed-form permutohedral orbit, and the ``check --suite
tropical`` at (3,3) and (2,4) before sampled points were built by placing
each factor's length in its block (500 curves embedded, round-tripped and
located at n >= 3), and the off-support ``locate --point`` and the
``locate --curve`` at (4,4) before ``locate`` read the chain off the
tropical curve, certified on that chain's cone, instead of scanning the
fan; any later change that alters
a byte of these outputs fails here.  The whole corpus runs in-process through
``cli.main`` in a few seconds.  To re-record after an
intended output change, print ``hashlib.sha256(stdout).hexdigest()`` for each
command and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from cyclic_wonderful.cli import main

GOLDEN = [
    ("fan --r 2 --n 2", 0, "bae0595223d88a8903cc70c685dbcf5831017c5f96bc658b2a256ae2fe7d4c2a"),
    ("fan --r 2 --n 2 --format json", 0, "938973239601cb35536819d10e26b48dfd76648bc35906fdf93685de95471e3a"),
    ("fan --r 2 --n 2 --via-stellar", 0, "bae0595223d88a8903cc70c685dbcf5831017c5f96bc658b2a256ae2fe7d4c2a"),
    ("chow --r 2 --n 2", 0, "65128702c6a38e8788b86ff615223b041fff87fe26477f4e40f5abfe9d4e1bcd"),
    ("chow --r 2 --n 2 --format json", 0, "e0cec78693778057f8a4fadde4be6e8cece974fe60b70d105f4593b268b1958b"),
    ("fan --r 3 --n 2", 0, "82046bc9a4db74f9ba4cd8960d7dfadce2078f0794ef5a666022f7c049968c58"),
    ("fan --r 3 --n 2 --format json", 0, "c5a2cb9917f761441f0e13d10cef682df417e81671916c877b0493073538b89a"),
    ("fan --r 3 --n 2 --via-stellar", 0, "82046bc9a4db74f9ba4cd8960d7dfadce2078f0794ef5a666022f7c049968c58"),
    ("chow --r 3 --n 2", 0, "7e3b41be02600746390289be36277a0f004bfa0fb738dd8eb8fabd8242328f82"),
    ("chow --r 3 --n 2 --format json", 0, "9f9b3f3d34a5bb574ac603f8cc7c48de1171d1741cdd55183c6b64ebd05d76fb"),
    ("fan --r 2 --n 3", 0, "253e002e7bad82b4d30e1bcff4c661eea0bfeb86316fbe553b78d13c85a6836a"),
    ("fan --r 2 --n 3 --format json", 0, "d0e3c3cc73b790d2ea7ff589b8513f7541e2fbded04edcb1bb0177aafe49a475"),
    ("fan --r 2 --n 3 --via-stellar", 0, "253e002e7bad82b4d30e1bcff4c661eea0bfeb86316fbe553b78d13c85a6836a"),
    ("chow --r 2 --n 3", 0, "02e60974002962816d97da891e54d752ece224b3ada1012ee9076c64f9144727"),
    ("chow --r 2 --n 3 --format json", 0, "e81c3bdd16d134c532d6e35cd64e27b9eec67a2d390efae4107da45062e857dc"),
    ("fan --r 4 --n 2", 0, "7dc0f03bca489c4fe878a2def4157cf4c3bbc10d1ada0fbda876a14a86b83d5b"),
    ("fan --r 4 --n 2 --format json", 0, "02dc9fe83e14f75c6fd1fdcee57bd401ddd4674d7e8d1e6ae6f91e9e5fe30779"),
    ("fan --r 4 --n 2 --via-stellar", 0, "7dc0f03bca489c4fe878a2def4157cf4c3bbc10d1ada0fbda876a14a86b83d5b"),
    ("chow --r 4 --n 2", 0, "bb1748d1508bf95600e0384e3cfd8de4594ca80cbd9be709ef6c16b578d2cd98"),
    ("chow --r 4 --n 2 --format json", 0, "fc808a274c7e04787e46b05492340a6b80c0b1d2059dc43df8a6b7d9fefaf41e"),
    ("chow --r 3 --n 3 --betti-only", 0, "a9bba22b42d347db57f7b2888d7c2cb2212a64d5d08e1c938077875761e533b1"),
    ("chow --r 2 --n 3 --betti-only", 0, "81795494267c4682b7784f2a778d7ce0f3e8783b678b388ec4683cfe31c3604c"),
    ("chow --r 4 --n 3 --format json", 0, "c26838f127762d9d7e739433918578ea959a70dec35e3180a360214303b5a291"),
    ("chow --r 2 --n 4 --format json", 0, "30a18088e7a6ce05469fcf95aa6ee595330da2ed1f414fb79662f3e28206ce95"),
    ("chow --r 3 --n 4 --format json", 0, "6fecb64a5c52a773ba32a99fcba097cae8bcb5e2d74a7027934d2f7060d51854"),
    ("normal-complex --r 2 --n 2 --union-extremes", 0, "aa366a8d541be6f227778403285919fb2cda0198610b27492a0e09cd344e2c03"),
    ("normal-complex --r 4 --n 2 --union-extremes --format json", 0, "acf9c7a48c7d6f875b42d58c183c53da5f0b673a538f4b19c49fc583be020c70"),
    ("normal-complex --r 2 --n 3 --union-extremes --format json", 0, "c283c4a0f6da649a5103fc409f46613382eef62b10cfc6d1940c2d798f8978b5"),
    ("check --r 2 --n 3 --suite normal --seed 3", 0, "3a373a08b33112e88a2af9b3e5dcef1f61493c708d89921a2df0ad05ed7ebae2"),
    ("normal-complex --r 3 --n 2 --format json", 0, "f6e42f34b48723d95bb92c9b055be68c6f1b5ff3306d3df5de5e80baeaa86598"),
    ("normal-complex --r 3 --n 3 --format json", 0, "d58bc653b3155aa9d94350c70ed60aedeeb05d92f91218df62dfebf7e704e585"),
    ("normal-complex --r 5 --n 1 --format json", 0, "39b221b27906bd59726c3b3a13f27a63a371766be53a1379dd16720ca6417108"),
    ("check --r 2 --n 2 --seed 7", 0, "310f24ff1feae9a9b3f27a08cf253a3b3cb13cd1ef6511c921dc7565ef24cd3c"),
    ("locate --r 3 --n 2 --curve 1:0:2,2:2:1", 0, "7a9124b53b8c59d4cdc7e34b105f4b180d21aaaa898e95374ada44354dd12d70"),
    ("locate --r 3 --n 2 --point 0,3,0,1", 0, "84026aa11330bb167bdfd30d9aabfc7005f18416caf00c1094aab95085e644e3"),
    ("fan --r 3 --n 3 --via-stellar --format json", 0, "0b62ae802b1c323b2f76f37a3f6aed6e53133351e81ce2ca8b27bed0dc2201e6"),
    ("fan --r 2 --n 4 --via-stellar", 0, "b129809afd2184a031f0d0d5d3a9ffca6cb0b4ae4053e7cdbf63f38110f75fb2"),
    ("check --r 3 --n 2 --seed 5", 0, "cd5b0acba8a2c603b9c0a4a3305b680cf2da2b3a78b7abc158f2f0168cc53c8e"),
    ("check --r 2 --n 3 --seed 5", 0, "4fc58a13e9c481f14879e80a1e63648f1a3815c1139bc8ff7a1aadcb03b25882"),
    ("fan --r 4 --n 3 --format json", 0, "df1a8a5b875058da880dfa3206a1bb99b2dc868b2604290de0498a4254d149ca"),
    ("locate --r 4 --n 3 --point 1,0,0,0,2,0,-1,-1,-1", 0, "3020828e5452ea6de027f8d5a3f48ec0743f6d2b6c56e8e378df8418e2b714e0"),
    ("check --r 3 --n 3 --suite fan --seed 1", 0, "869ad75cc7075987fc052df1704867491ef20055cde3b34b7404c7914f5a694c"),
    ("check --r 4 --n 2 --suite tropical --seed 2", 0, "4dbd16917363db8bb9d9fd373910f864d508e7df653cff799d6ec2f8f6440980"),
    ("locate --r 4 --n 3 --curve 1:0:2,2:3:2,3:c:0", 0, "ba52bb937324716b1309d80ca5ec6fe7562a696cec1c049700ef174a56455c6e"),
    ("locate --r 2 --n 4 --point 2,2,0,-1", 0, "b3ad60ace39dc72e3c60f22d169ec6558cbd73b4692cfd9d8ff91418f1f3d6da"),
    ("check --r 3 --n 3 --suite normal --seed 2", 0, "09192c542613eb66059eb03a041c687937a0f0b2fba338dc09697e0195dce7f1"),
    ("locate --r 4 --n 4 --point 1,0,0,0,2,0,-1,-1,-1,0,0,3", 0, "20dd79839446bab032a40d33844d0cffd75e8972f4dc87b74b1b47cd8a483248"),
    ("check --r 4 --n 3 --suite normal --seed 4", 0, "1f8ecd644e31c5d9c3afc1e652703e7ee0fc8e6ae4c322cc55d8e216b991a473"),
    ("check --r 4 --n 2 --seed 3", 0, "af0dcbbfd0ecb7e3d7de6be6eae3841ef622d1cec046b585dbd5f53e6412d6a2"),
    ("fan --r 2 --n 4 --format json", 0, "c2e0dafc385ef1bae3abc030349fbd5cd0c2f67759e817797e508d3be861db89"),
    ("check --r 2 --n 4 --suite fan --seed 1", 0, "78fe6b9d54b965b64b38c3d10f925760025a0790ac14a7a6cf3666fdebd37f79"),
    ("normal-complex --r 3 --n 2 --union-extremes --format json", 0, "27fc40fd27c8aaca384d7ce0764e6ce3636e233789966ef18430315e5da24ee9"),
    ("normal-complex --r 5 --n 2 --union-extremes --format json", 0, "7a14575aa3d8e04b8f28e68f7a074276b4dda1d24fc1ee76d4cdc2cd0d50613d"),
    ("normal-complex --r 2 --n 1 --union-extremes", 0, "34ed19b42e519541801dfff893ad7499d044feb72012df63a5397423a819e6ef"),
    ("normal-complex --r 3 --n 0 --union-extremes --format json", 0, "e3ab51b747189d51578b18fa23c08567326bdb04ec232795b2dbfa4143d866a9"),
    ("check --r 3 --n 3 --suite tropical --seed 1", 0, "084851fbb6c5ced6c759cef8e376e271999c041ea23cd2d4559e290a29a2cee4"),
    ("check --r 2 --n 4 --suite tropical --seed 2", 0, "4a079faf44c5ad50aac2f76d8ba668e8e24e4bb5ca22e6c973ab9be633ca7b44"),
    ("locate --r 4 --n 4 --point 1,1,0,0,0,0,-1,-1,-1,0,0,3", 0, "59c8ca186ab702e4c40065e40612ef8e6e0c0b7ff147c7c5c1618cdc436b92be"),
    ("locate --r 4 --n 4 --curve 1:0:2,2:3:2,3:1:1,4:c:0", 0, "c63752c2e2b34f216ac99518ecc37c6558ceb365c7ffa1059c2982729407d7c3"),
    ("fan --r 1 --n 2", 2, "19a9c3723b7d7f4d89611ed97f66c1f2369ca2ac75bc525df5a199f19f8b3969"),
    ("locate --r 3 --n 2 --point 1,2", 2, "2360e8858d7deb4b2fdfefd665fff621c57c1bcb7cd8a38e1eced897152e29a7"),
]


@pytest.mark.parametrize("command,status,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_cli_output(monkeypatch, command, status, digest):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split())
    assert code == status
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
