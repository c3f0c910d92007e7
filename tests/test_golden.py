"""Byte-identity of the command-line output on the bundled inputs.

Each entry pins the sha256 digests of stdout and stderr and the exit code of
one command: ``check``, ``algebra --dump``, ``info`` and ``fields`` on every
bundled group, ``hurwitz`` and ``oracle`` on every bundled surface over
``s3_trivial``, and ``hecke`` on three bundled groups, each with one
subgroup ``S``, and on ``s4_trivial`` with ``S = 1`` as well.
A change that alters any byte of that output fails here; a deliberate change
of output updates the digests in the same commit.
"""

from __future__ import annotations

import hashlib

import pytest

from cardyfrob import bundled_input
from cardyfrob.cli import run

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = {
    "check a5_k_double_transposition": (
        "3d7538b92e9ac4db3f1bdc5824f914754e8f1856f32a428a30d887d84df01177",
        EMPTY,
        0,
    ),
    "algebra a5_k_double_transposition --dump": (
        "a58aa41daa4cdf665d16fa5351bd37e22af67e0ea8bef8bcb79acb30ca2e8b7f",
        EMPTY,
        0,
    ),
    "info a5_k_double_transposition": (
        "627f8482f5f227ef3d14fc8f965d8012dfe87674de070d679271923af86f1ace",
        EMPTY,
        0,
    ),
    "fields a5_k_double_transposition": (
        "23fb56072b339820698f06ed3c6fdcb82abbdf85aeb0b042b63b6bbadbc7d5a1",
        EMPTY,
        0,
    ),
    "check s3_k_transposition": (
        "2f8ea035abdd0124ad1cac44154c2de9d388c2121f1f7c881cb090356766429e",
        EMPTY,
        0,
    ),
    "algebra s3_k_transposition --dump": (
        "b22eb0b7062f344482f37cb42622812ec672db34a0bd32e9d3ad1bd433a29582",
        EMPTY,
        0,
    ),
    "info s3_k_transposition": (
        "db56cdbfa29923ad08e6c341d94eef689a25e8481d009aa174134164678b3380",
        EMPTY,
        0,
    ),
    "fields s3_k_transposition": (
        "5fe1e197b4d18d3ab1bd6834e8f19ac815c4517ae9ca20f486771eecbc547e89",
        EMPTY,
        0,
    ),
    "check s3_trivial": (
        "df0c425ca3765f965a0c9e2166ca3748ca8ac621b3301af1b1edad4a006e0314",
        EMPTY,
        0,
    ),
    "algebra s3_trivial --dump": (
        "c14d6d061abb374340e79cb3f483e2db941f6f578206f6abb60c8d423982bbe1",
        EMPTY,
        0,
    ),
    "info s3_trivial": (
        "59c7a93c2c2aa3e4ace33606da219602023ebf7466859ca065bc0af15c9a9dd6",
        EMPTY,
        0,
    ),
    "fields s3_trivial": (
        "fb2b1480fff4fd4e128c750641d753bf5488f463d7b0422a57321911a464d326",
        EMPTY,
        0,
    ),
    "check s4_k_double_transposition": (
        "3c5a99a13670d5cf366b7ab2888cf1b23e1074460ee32d4e7e336db2669c91d7",
        EMPTY,
        0,
    ),
    "algebra s4_k_double_transposition --dump": (
        "c32d19a3c039f4085961c971be5aa281167c4249853d400e1482861ca382539b",
        EMPTY,
        0,
    ),
    "info s4_k_double_transposition": (
        "6ddb5bc3088e38192112ffc2749a642f1ebcbe542a57637bbf50d7c5ffd43f1c",
        EMPTY,
        0,
    ),
    "fields s4_k_double_transposition": (
        "1b5014014ccf883dc4a4f214a6c2e50db3be71b051495a945a8ab75c28c42928",
        EMPTY,
        0,
    ),
    "check s4_trivial": (
        "211a9c0650395e041814bdee33477e6c9dafc943c2909f547f6c6d77536b5f7b",
        EMPTY,
        0,
    ),
    "algebra s4_trivial --dump": (
        "6f7badb02afd2c7952e8f95c2cc78d49c354c929f7e086f3213550b528984845",
        EMPTY,
        0,
    ),
    "info s4_trivial": (
        "728c626c06c5dbc48f4c0887d8f4d37f53134b4a47997ff28e0e381b3a5774c9",
        EMPTY,
        0,
    ),
    "fields s4_trivial": (
        "9f7a4ecaaf98610c34430d28e92acc26f4e29451de9677da182a00f9d180e7c0",
        EMPTY,
        0,
    ),
    "check z2_trivial": (
        "b0c19493ff563c9dbd8cc23d0bc4cab5b90384524445e4538a0df083b6fdb6c1",
        EMPTY,
        0,
    ),
    "algebra z2_trivial --dump": (
        "a6a2570539d776d54f77f03637602cd06618e70771f419d964473e326ec5c4b2",
        EMPTY,
        0,
    ),
    "info z2_trivial": (
        "0514d606f86a97e8118b79a5efc292b62ec251d8aacf42b00687772d55c2112d",
        EMPTY,
        0,
    ),
    "fields z2_trivial": (
        "4ee154c56ed951e5db77d25ecf9d083c5fea09235170bd631d78167230be362a",
        EMPTY,
        0,
    ),
    "check z3_trivial": (
        "5509d6bde71c167c04c9ca3fb9da6a33e348a42603c3e93d26eb38e930dcb5d5",
        EMPTY,
        0,
    ),
    "algebra z3_trivial --dump": (
        "18069a39a5c866ea7ca4091d5d78633f7249318268c07dd1ee016f15fd13961c",
        EMPTY,
        0,
    ),
    "info z3_trivial": (
        "5c842cf64e80a6641c298642514b0deda829e57103df359ac24df3371623cd0a",
        EMPTY,
        0,
    ),
    "fields z3_trivial": (
        "99bfd31ec58be597bea858cb6fc9952718b81a6191a3627bdc53f5584a74a1fc",
        EMPTY,
        0,
    ),
    "hurwitz s3_trivial cylinder_diagonal": (
        "5817a53dbf48f0a8ca82597ac5160aac2e65ea2a8803b9f7f50d74cf378d104d",
        EMPTY,
        0,
    ),
    "hurwitz s3_trivial disc_pair": (
        "b29b161c19db0bc7667cd4b56d02504c1ae9ae952dbdcb5f389c905e262664f8",
        EMPTY,
        0,
    ),
    "hurwitz s3_trivial klein_bottle": (
        "681947262f4f6435c7ad9c770b9ccb0f8208fd4d450be6d9c3b651d212731e27",
        EMPTY,
        0,
    ),
    "hurwitz s3_trivial projective_plane": (
        "2e6165e33fee08aa33082db1001222f92cee0c7dcfa5ecdbfeafbf7273532e0d",
        EMPTY,
        0,
    ),
    "hurwitz s3_trivial sphere": (
        "00f911bd9e9bbc2525af584fbf953945a1a5cfd9b789e4d14e769ee185458793",
        EMPTY,
        0,
    ),
    "hurwitz s3_trivial torus": (
        "681947262f4f6435c7ad9c770b9ccb0f8208fd4d450be6d9c3b651d212731e27",
        EMPTY,
        0,
    ),
    "oracle s3_trivial cylinder_diagonal": (
        "625da15995a36577ab72e473783a1b57e9343826958f882a4965fedf122a4fe4",
        EMPTY,
        0,
    ),
    "oracle s3_trivial disc_pair": (
        "2de277ca0ff96b7b0ade7af50749bce64efd5c6de6d4d7c4e8d3223f0bb64a71",
        EMPTY,
        0,
    ),
    "oracle s3_trivial klein_bottle": (
        "6098f4e92494c0e914065efeaeda38913ef50b475e8c27fa0e12f273b4e7157d",
        EMPTY,
        0,
    ),
    "oracle s3_trivial projective_plane": (
        "ce35de2d706c41bd927cc2e635ae46e9594684da1ac58033ddc6042baa54d523",
        EMPTY,
        0,
    ),
    "oracle s3_trivial sphere": (
        "d755fc87ecbb0245b2d3e74cb54070cba7f479d732f1a39dffdc14648d99817f",
        EMPTY,
        0,
    ),
    "oracle s3_trivial torus": (
        "6098f4e92494c0e914065efeaeda38913ef50b475e8c27fa0e12f273b4e7157d",
        EMPTY,
        0,
    ),
}

# ``hecke --group <group> --subgroup-generators <S>``: the coset action of
# the group on G/S goes through the same NSet certificate as the
# conjugation action.
HECKE_GOLDEN = {
    ("s3_trivial", "[[1, 0, 2]]"): (
        "d1cbb78521f67d35358206f3453782089f5e7133a0e98cadbcc8f8afab60d54a",
        EMPTY,
        0,
    ),
    ("s4_trivial", "[[1, 0, 2, 3], [0, 2, 1, 3]]"): (
        "4636e0abbd3d0077253157c57d1ab3c52a1e079b4b41dd7b8e49145bbd43e944",
        EMPTY,
        0,
    ),
    ("a5_k_double_transposition", "[[1, 0, 3, 2, 4]]"): (
        "c6dfc073cc94b1eee20e769891b45335d4498a539dbe38aaf4d7599fee82ebd2",
        EMPTY,
        0,
    ),
    # S = 1: the regular action, one double coset per element (24).
    ("s4_trivial", "[]"): (
        "206b48111610116df1fe528a7abe6328d2e60c808c5345a04bbb4e13855aa2f0",
        EMPTY,
        0,
    ),
}


def hecke_id(key: tuple[str, str]) -> str:
    """The group name, with ``-S1`` when ``S`` is the trivial subgroup."""
    group, subgroup = key
    return f"{group}-S1" if subgroup == "[]" else group


def argv_for(key: str) -> list[str]:
    command, group, *rest = key.split()
    argv = [command, "--group", str(bundled_input(f"groups/{group}.json"))]
    if command in ("hurwitz", "oracle"):
        return argv + ["--surface", str(bundled_input(f"surfaces/{rest[0]}.json"))]
    return argv + rest


def test_golden_table_covers_every_bundled_input():
    groups = {key.split()[1] for key in GOLDEN}
    for command in ("hurwitz", "oracle"):
        surfaces = {key.split()[2] for key in GOLDEN if key.startswith(command)}
        assert len(surfaces) == 6, command
    assert len(groups) == 7
    assert len(GOLDEN) == 4 * len(groups) + 2 * len(surfaces)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_is_byte_identical(capsys, key):
    code = run(argv_for(key))
    captured = capsys.readouterr()
    digests = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (captured.out, captured.err)
    )
    assert digests + (code,) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(HECKE_GOLDEN), ids=hecke_id)
def test_hecke_output_is_byte_identical(capsys, key):
    group, subgroup = key
    code = run(
        [
            "hecke",
            "--group",
            str(bundled_input(f"groups/{group}.json")),
            "--subgroup-generators",
            subgroup,
        ]
    )
    captured = capsys.readouterr()
    digests = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (captured.out, captured.err)
    )
    assert digests + (code,) == HECKE_GOLDEN[key]
