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
fan, and the full ``check`` runs at (3,2) with seed 11 and (2,3) with seed
12 before the sampled rationals were built once per value and the
intersection law read one membership mask per point, and the ``chow
--betti-only`` at (1000,1) and the ``chow`` at (40,1) before the rank oracle
wrote its own reduced relations instead of reading them off the presentation
(the second marks its 39 reduced relations among 780), and the text
``normal-complex`` at (120,1), the ``check --suite normal`` at (200,1) and
the ``normal-complex --format json`` at (40,1) before a cell stored each row
once and built ``h_rep`` only when read (the text output and the check
never read it; the JSON prints every row), and the full ``check`` at
(120,1) and the ``locate --curve`` at (300,1) before the identity became
the cached empty prefix of the cones' elimination (at n = 1 every maximal
cone has one ray, so every cone's state starts from it), and the nine
``check`` runs that include the fan suite, the full ones at (2,2) with
seed 7, (3,2) with seeds 5 and 11, (2,3) with seeds 5 and 12, (4,2) with
seed 3 and (120,1) with seed 3 and the ``--suite fan`` ones at (3,3) and
(2,4) with seed 1, when the completeness line stopped locating 1,000
sampled points and read the fan's walls (r = 2) or one witness point
(r > 2) instead; ``test_only_the_completeness_line_changed`` puts back
the line they printed before and finds those earlier bytes, and four of
them again, the full ``check`` at (2,2) with seed 7 and at (2,3) with
seeds 5 and 12 and the ``--suite fan`` at (2,4) with seed 1, when the
fan suite stopped checking the intersection law at r = 2, n >= 1, where
the wall certificate decides it; ``test_only_the_law_line_left_at_r_2``
puts back the law line, the old completeness name and the old summary
counts and finds the bytes printed before, and five of them again, the
full ``check`` at (3,2) with seeds 5 and 11, at (4,2) with seed 3 and at
(120,1) with seed 3 and the ``--suite fan`` at (3,3) with seed 1, when the
wall certificate took over the law at every r, so that the fan suite
samples nothing; ``test_only_the_law_and_completeness_lines_left_at_r_above_2``
puts back the law line, the old completeness line and the old summary
counts and finds the bytes printed before, as it does for the full
``check`` at (3,0), recorded then.  Any later
change that alters a byte of these outputs fails here.  The whole corpus runs in-process through
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
    ("check --r 2 --n 2 --seed 7", 0, "08e152294473da134a9adac4efede35388fe4e6af5f3f5d74fdaaacbe94cab68"),
    ("locate --r 3 --n 2 --curve 1:0:2,2:2:1", 0, "7a9124b53b8c59d4cdc7e34b105f4b180d21aaaa898e95374ada44354dd12d70"),
    ("locate --r 3 --n 2 --point 0,3,0,1", 0, "84026aa11330bb167bdfd30d9aabfc7005f18416caf00c1094aab95085e644e3"),
    ("fan --r 3 --n 3 --via-stellar --format json", 0, "0b62ae802b1c323b2f76f37a3f6aed6e53133351e81ce2ca8b27bed0dc2201e6"),
    ("fan --r 2 --n 4 --via-stellar", 0, "b129809afd2184a031f0d0d5d3a9ffca6cb0b4ae4053e7cdbf63f38110f75fb2"),
    ("check --r 3 --n 2 --seed 5", 0, "3910611c647e6157264f3024b5aa71c4d1a5448d2a29a369194020dbbc613923"),
    ("check --r 2 --n 3 --seed 5", 0, "c6c1d0a12d39ada32e7c2b317559eb8cbfe7443a6d21025429eded23bf4f40b7"),
    ("check --r 3 --n 2 --seed 11", 0, "3910611c647e6157264f3024b5aa71c4d1a5448d2a29a369194020dbbc613923"),
    ("check --r 2 --n 3 --seed 12", 0, "c6c1d0a12d39ada32e7c2b317559eb8cbfe7443a6d21025429eded23bf4f40b7"),
    ("fan --r 4 --n 3 --format json", 0, "df1a8a5b875058da880dfa3206a1bb99b2dc868b2604290de0498a4254d149ca"),
    ("locate --r 4 --n 3 --point 1,0,0,0,2,0,-1,-1,-1", 0, "3020828e5452ea6de027f8d5a3f48ec0743f6d2b6c56e8e378df8418e2b714e0"),
    ("check --r 3 --n 3 --suite fan --seed 1", 0, "beb5139059a20dfa023b7e79f5839a43a95af7cbc9a5105e54adf1d2e531bac0"),
    ("check --r 4 --n 2 --suite tropical --seed 2", 0, "4dbd16917363db8bb9d9fd373910f864d508e7df653cff799d6ec2f8f6440980"),
    ("locate --r 4 --n 3 --curve 1:0:2,2:3:2,3:c:0", 0, "ba52bb937324716b1309d80ca5ec6fe7562a696cec1c049700ef174a56455c6e"),
    ("locate --r 2 --n 4 --point 2,2,0,-1", 0, "b3ad60ace39dc72e3c60f22d169ec6558cbd73b4692cfd9d8ff91418f1f3d6da"),
    ("check --r 3 --n 3 --suite normal --seed 2", 0, "09192c542613eb66059eb03a041c687937a0f0b2fba338dc09697e0195dce7f1"),
    ("locate --r 4 --n 4 --point 1,0,0,0,2,0,-1,-1,-1,0,0,3", 0, "20dd79839446bab032a40d33844d0cffd75e8972f4dc87b74b1b47cd8a483248"),
    ("check --r 4 --n 3 --suite normal --seed 4", 0, "1f8ecd644e31c5d9c3afc1e652703e7ee0fc8e6ae4c322cc55d8e216b991a473"),
    ("check --r 4 --n 2 --seed 3", 0, "c5fb59d4c11d75a7b15205fb2f9d0ece4975a6f9d45428202a07e927569769b1"),
    ("fan --r 2 --n 4 --format json", 0, "c2e0dafc385ef1bae3abc030349fbd5cd0c2f67759e817797e508d3be861db89"),
    ("check --r 2 --n 4 --suite fan --seed 1", 0, "cd382831b4712c7ada41e02c42220bd3af6ba7b1252d9f2d7f25c1bbdc0398ed"),
    ("normal-complex --r 3 --n 2 --union-extremes --format json", 0, "27fc40fd27c8aaca384d7ce0764e6ce3636e233789966ef18430315e5da24ee9"),
    ("normal-complex --r 5 --n 2 --union-extremes --format json", 0, "7a14575aa3d8e04b8f28e68f7a074276b4dda1d24fc1ee76d4cdc2cd0d50613d"),
    ("normal-complex --r 2 --n 1 --union-extremes", 0, "34ed19b42e519541801dfff893ad7499d044feb72012df63a5397423a819e6ef"),
    ("normal-complex --r 3 --n 0 --union-extremes --format json", 0, "e3ab51b747189d51578b18fa23c08567326bdb04ec232795b2dbfa4143d866a9"),
    ("check --r 3 --n 3 --suite tropical --seed 1", 0, "084851fbb6c5ced6c759cef8e376e271999c041ea23cd2d4559e290a29a2cee4"),
    ("check --r 2 --n 4 --suite tropical --seed 2", 0, "4a079faf44c5ad50aac2f76d8ba668e8e24e4bb5ca22e6c973ab9be633ca7b44"),
    ("locate --r 4 --n 4 --point 1,1,0,0,0,0,-1,-1,-1,0,0,3", 0, "59c8ca186ab702e4c40065e40612ef8e6e0c0b7ff147c7c5c1618cdc436b92be"),
    ("locate --r 4 --n 4 --curve 1:0:2,2:3:2,3:1:1,4:c:0", 0, "c63752c2e2b34f216ac99518ecc37c6558ceb365c7ffa1059c2982729407d7c3"),
    ("chow --r 1000 --n 1 --betti-only", 0, "0b146279cad3fb1b65adbc5e6d8728a57b613ee19e6f964d11f8eb49fc2bc50e"),
    ("chow --r 40 --n 1", 0, "d3e7ecc455e172c776d8f4a24c07b35f67e3a9938b4cab341aa0bc615f2206f9"),
    ("normal-complex --r 120 --n 1", 0, "a201113ad41c17e60881d0015b337de9a572b44e2c5a2d1a991e955e555aadc5"),
    ("check --r 200 --n 1 --suite normal --seed 3", 0, "510fc29b840b46bf7754a437200464cb8d8cf98529035b08ea829e9aab9a1deb"),
    ("normal-complex --r 40 --n 1 --format json", 0, "63fbab7ab8e5e0b907414b83f1da9e51681384f41e19833ac1c3e7994620b565"),
    ("check --r 120 --n 1 --seed 3", 0, "e64bf89c2cf96eb22cb9aae8a189553282d087f23e3ef7e4561ea69730f94e06"),
    ("locate --r 300 --n 1 --curve 1:0:5/2", 0, "26f38fdaa9bba24d05bfcd8add25e3b176b9ff344b3ecfc6c503fd0cead1ac6e"),
    ("check --r 3 --n 0", 0, "0f81812601217e09e5311f482b53bc88e60f84505e96e75c272824123b940ca8"),
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


# The four digests above whose fan suite runs at r = 2 with n >= 1, each
# with the pair count its intersection-law line printed and the digest
# recorded then.
LAW_AT_R_2 = {
    "check --r 2 --n 2 --seed 7": (289, "938f278634c227d6d7d2ac285ead4aa8465aebab4e49b5f93014f0ba871b4683"),
    "check --r 2 --n 3 --seed 5": (1000, "b8b9eb79bc9fe2d6706c207ac545d45c384f6f689dbc76e5efc60e3159985444"),
    "check --r 2 --n 3 --seed 12": (1000, "b8b9eb79bc9fe2d6706c207ac545d45c384f6f689dbc76e5efc60e3159985444"),
    "check --r 2 --n 4 --suite fan --seed 1": (1000, "f7e46470ce99d4a8576561ab4e1bd79fdf715a7290c8e4b14cd3fa75318bddf8"),
}


def with_the_law_line(out, pairs):
    """The output as printed while the law still ran at r = 2: its line
    after the stellar line, the completeness line's old name and one more
    check in the summary."""
    stellar = "PASS [fan] stellar route equals direct route\n"
    assert out.count(stellar) == 1
    law = f"PASS [fan] cone intersection law ({pairs} pairs checked, 0 failures)\n"
    out = out.replace(stellar, stellar + law)
    out = out.replace("complete for r = 2, cones meeting in common faces:", "complete for r = 2:")
    head, summary = out[:-1].rsplit("\n", 1)
    passed, total, rest = summary.replace("/", " ", 1).split(" ", 2)
    assert passed == total
    return f"{head}\n{int(passed) + 1}/{int(total) + 1} {rest}\n"


def run_golden(monkeypatch, command):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(command.split()) == 0
    return buf.getvalue()


@pytest.mark.parametrize("command", LAW_AT_R_2)
def test_only_the_law_line_left_at_r_2(monkeypatch, command):
    out = run_golden(monkeypatch, command)
    assert "intersection law" not in out
    pairs, digest = LAW_AT_R_2[command]
    assert hashlib.sha256(with_the_law_line(out, pairs).encode()).hexdigest() == digest


# The six digests above whose fan suite ran the law at r > 2 or n = 0,
# each with the pair count its law line printed, the completeness line it
# printed (None for the n = 0 line, which is unchanged), and the digest
# recorded then.
NOT_COMPLETE_THEN = "not complete for r > 2: e_1^1 + e_1^2 lies in no cone"
LAW_BEFORE_THE_WALLS = {
    "check --r 3 --n 2 --seed 5": (1156, NOT_COMPLETE_THEN, "4453cc4638dd709ddf9e6a4a94a4135cdfc30acdcc44b62d59d23d93b1d8c384"),
    "check --r 3 --n 2 --seed 11": (1156, NOT_COMPLETE_THEN, "4453cc4638dd709ddf9e6a4a94a4135cdfc30acdcc44b62d59d23d93b1d8c384"),
    "check --r 4 --n 2 --seed 3": (1000, NOT_COMPLETE_THEN, "2cbe7414767463fa574f8f1e6467bfc6075417f6a12f4ca576f3e72291c738c8"),
    "check --r 120 --n 1 --seed 3": (1000, NOT_COMPLETE_THEN, "2b5361cb2fa39dabdca952678fe4d8fc697305bfe1f323aae49c38303ca2fa07"),
    "check --r 3 --n 3 --suite fan --seed 1": (1000, NOT_COMPLETE_THEN, "33bb787569e3d23145aa476d0781658c8d606e3c5d31f5e1300e116a874d13cb"),
    "check --r 3 --n 0": (1, None, "a071cdc15c52c2a2be75f06bf7b75e09d113c84cdff4effb52c4aee49f71e584"),
}


def with_the_sampled_law(out, pairs, completeness):
    """The output as printed while the law still ran at r > 2 and n = 0:
    at r > 2 the completeness line as it printed then, with no detail, and
    the law's line after the stellar line and one more check in the
    summary."""
    if completeness is not None:
        new = "PASS [fan] not complete for r > 2: e_1^1 + e_1^2 lies in no cone, and"
        (line,) = [x for x in out.splitlines() if x.startswith(new)]
        out = out.replace(line, f"PASS [fan] {completeness}")
    return with_the_law_line(out, pairs)


@pytest.mark.parametrize("command", LAW_BEFORE_THE_WALLS)
def test_only_the_law_and_completeness_lines_left_at_r_above_2(monkeypatch, command):
    out = run_golden(monkeypatch, command)
    assert "intersection law" not in out
    pairs, completeness, digest = LAW_BEFORE_THE_WALLS[command]
    assert hashlib.sha256(with_the_sampled_law(out, pairs, completeness).encode()).hexdigest() == digest


# The nine digests above that run the fan suite, each with the count its
# sampled completeness line printed and the digest recorded then.
SAMPLED_COMPLETENESS = [
    ("check --r 2 --n 2 --seed 7", "1000/1000", "310f24ff1feae9a9b3f27a08cf253a3b3cb13cd1ef6511c921dc7565ef24cd3c"),
    ("check --r 3 --n 2 --seed 5", "501/1000", "cd5b0acba8a2c603b9c0a4a3305b680cf2da2b3a78b7abc158f2f0168cc53c8e"),
    ("check --r 2 --n 3 --seed 5", "1000/1000", "4fc58a13e9c481f14879e80a1e63648f1a3815c1139bc8ff7a1aadcb03b25882"),
    ("check --r 3 --n 2 --seed 11", "504/1000", "07585834145dbd9c41b7b2be45a8bd6e48902b1c5664305cc3f9662720df4374"),
    ("check --r 2 --n 3 --seed 12", "1000/1000", "4fc58a13e9c481f14879e80a1e63648f1a3815c1139bc8ff7a1aadcb03b25882"),
    ("check --r 3 --n 3 --suite fan --seed 1", "500/1000", "869ad75cc7075987fc052df1704867491ef20055cde3b34b7404c7914f5a694c"),
    ("check --r 4 --n 2 --seed 3", "500/1000", "af0dcbbfd0ecb7e3d7de6be6eae3841ef622d1cec046b585dbd5f53e6412d6a2"),
    ("check --r 2 --n 4 --suite fan --seed 1", "1000/1000", "78fe6b9d54b965b64b38c3d10f925760025a0790ac14a7a6cf3666fdebd37f79"),
    ("check --r 120 --n 1 --seed 3", "500/1000", "d796c34eef4faa2bb1fc3923cbe07e59d6263bccd6d1d7c0fab124ad64d9be43"),
]
# the exact line's name -> the sampled line's name
SAMPLED_NAME = {
    "complete for r = 2: every wall has two maximal cones on opposite sides": "complete for r = 2: all sampled points locate",
    "not complete for r > 2: e_1^1 + e_1^2 lies in no cone": "not complete for r > 2: some sampled point fails to locate",
}


@pytest.mark.parametrize(
    "command,located,digest", SAMPLED_COMPLETENESS, ids=[c for c, _, _ in SAMPLED_COMPLETENESS]
)
def test_only_the_completeness_line_changed(monkeypatch, command, located, digest):
    out = run_golden(monkeypatch, command)
    if command in LAW_AT_R_2:
        out = with_the_law_line(out, LAW_AT_R_2[command][0])
    if command in LAW_BEFORE_THE_WALLS:
        out = with_the_sampled_law(out, *LAW_BEFORE_THE_WALLS[command][:2])
    (line,) = [x for x in out.splitlines() if x.startswith(tuple(f"PASS [fan] {n}" for n in SAMPLED_NAME))]
    name = line[len("PASS [fan] ") :].split(" (")[0]
    out = out.replace(line, f"PASS [fan] {SAMPLED_NAME[name]} ({located})")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
