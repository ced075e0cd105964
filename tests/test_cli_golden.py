"""Byte-identical CLI output: the SHA-256 of stdout and the exit code of each
sample_inputs invocation, in JSON and in table form.

A change that alters any byte of these reports, or an exit code, fails
here.  ``verify --suite all`` is slow and left to the acceptance tests.
Regenerate a digest only for a deliberate change of output, and say why.
"""

import hashlib
import os

import pytest

from conductor.cli import run

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "sample_inputs")

# (arguments, exit code, SHA-256 of stdout); a *.json argument names a file
# in sample_inputs
GOLDEN = [
    ("chartab --group s3.json", 0, "6248c5b4c988d8c02cb65d8564f76cc6aeabebe173d39d72ec46f9379674827a"),
    ("chartab --group s3.json --format table", 0, "e7c57e719932831ceffa877960a8d28737dddca98fbd0d1a7042218cdd6d84f6"),
    ("chartab --group c7.json", 0, "1e85777bc82426b28d71edabcbc65ff14521ced34eb3f1d64def3110b08c17b6"),
    ("chartab --group c7.json --format table", 0, "39af44907d348e659717c07f0b0265c0f338fb7d6acaec32824259fa1112f683"),
    ("chartab --group psl27.json", 0, "775082cac9aee934f0e68a768fddde9631927b76daa298f9abc6f78ca0c7aafe"),
    ("chartab --group psl27.json --format table", 0, "b59ac043d25f990f93df82989a81851c8874c7e04cc82ef148970b808549e871"),
    ("finite --group s3.json --p 3", 0, "9164553c42a52dc1ab9013bcfb2ed873498d0cf54614ac0d2f7c562170bcc261"),
    ("finite --group s3.json --p 3 --format table", 0, "6a31afa21d5e96ca250235c7b00f578e4a25e02e32b07a20962b0a2d48588185"),
    ("finite --group s3.json --p 7", 0, "653b9a2504d87f889f20dfba47e36b0326635b175b8bcf1f758e4a52f030b8b1"),
    ("finite --group s3.json --p 7 --format table", 0, "f14ed4aedfd93144da83e9b5723b2006323e624facb270d0beeb8729704f38a9"),
    ("finite --group c7.json --p 7", 0, "48603b326eb28d9be11fa7bb43bac9021e009860e61af91208ab1b3187a5db3c"),
    ("finite --group c7.json --p 7 --format table", 0, "70a28c201ddb5425130c6161935a9ae1b2ca8f0b7e73f5e88d761588a3097845"),
    ("finite --group psl27.json --p 7", 0, "793e940b44cf89e4e3a910f22bd085cb92a0b37657e40e6d5c1c5f4d7f5dd3cb"),
    ("finite --group psl27.json --p 7 --format table", 0, "178ce482c8b6597227661a1c077a2e30cf197326fa37d1c31742ec190635734b"),
    ("finite --group s3.json --p 3 --base q3_zeta3.json", 0, "0b422de5d80d4f5a21a19a46f6acb6e199d531741cd2063c2534665122509e90"),
    ("finite --group s3.json --p 3 --base q3_zeta3.json --format table", 0, "fb8d6e1a4ebd5be9f22914c8fd609efeff78c3f7dba268d26cd7836cb88124b7"),
    ("iwasawa --h c7.json --alpha sq.json --p 3", 0, "323cb187243074feb7225ff97347b45f43746cf8ac47d05e0d2f97d1e5cab422"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --format table", 0, "5bd09625f8e4983814888f104ecc07bce150be8cc9b0ffd13e1a16cb3c027d20"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --base q3_zeta3.json", 0, "33efaa8d21fc9cb8835e24f001ec4fae8404cdfae5501099ff54260e78ac6982"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --base q3_zeta3.json --format table", 0, "bb7da6d482808bbf63fa28eb9bc60a585cb25a42229a383ab368c5f906b49222"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 1", 0, "87558a1d2407afd743416e386f13ad5df9d19795a2d1c77ae5b32ba1d05ed477"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 1 --format table", 0, "59b8666782c25cd2a391478886ab56b421cb21b26063d43c99d81698302eccfb"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 2", 0, "b9bb57f60b468eec0128f311d17676b7f5edc9afd469e97bb68028fa53954a7a"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 2 --format table", 0, "1efe51b1de950dde11f94fe5711eef8c897ec234c082e59d8d3c63035456fcb3"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 3", 0, "705d8af454b041235fa73fd3a83452ad3aa2fcc06ede41fc0ed645f958544224"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 3 --format table", 0, "aeb84c07bf669ddf0bacdbee05afdce03e3443968703b5c04badbab8a978aae0"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 4", 0, "f25469cf1b2c5afbb83189e284c9120dbcb357c53bb1ad5a32661b4258c6ac0f"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 4 --format table", 0, "ea3389967400605d94e939f6adefa3d2f2c67c30da1afd7ed016e0228a7ae44d"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 5", 0, "e8546c7cb84cafc4f7a7a7758aac27851ea1ca0f9fe46c95920a9640d0988f9e"),
    ("iwasawa --h c7.json --alpha sq.json --p 3 --level 5 --format table", 0, "0f13ec9bbf00fd941107425c01bdf82860670c7e12cad2836b925e8eed5d5701"),
    ("fitting --group s3.json --p 3 --matrix times3.json", 0, "2c55d51aceadbafee19c23ca75ca39635e33bf0cf161112d7323a0158a573867"),
    ("fitting --group s3.json --p 3 --matrix times3.json --format table", 0, "aa789dc39ab85f7af9118897c641bd9c685431b2f55b9ee279a2bd75c1a1ea8b"),
    ("fitting --group c7.json --p 7 --matrix c7_fitting.json", 0, "e884115120b4f4106a14538ededbb2e172f129925857bc3a71cdaf5c283d46ab"),
    ("fitting --group c7.json --p 7 --matrix c7_fitting.json --format table", 0, "decbe22ba019d82f2ab8a756b52a71647cd7ff61d09322b1a0dbd67d6159f231"),
    ("verify --suite iwasawa", 0, "c6cb73f5df22a5148510f6bd24625ddbe11bdb353d47b114f983316bdd25d863"),
    ("verify --suite iwasawa --format table", 0, "9b40899f693a0b4c751031a9ac20b68b6291ac0818f059a712d569820d0361f0"),
    ("verify --suite trace", 0, "cab58d111a8db15ae8e546ea5ec60028877f62a6aa99e8e5801963d74700d72e"),
    ("verify --suite trace --format table", 0, "7b07a765ed50b8c127243b2a539bd2074468f9fecbb5d517a4222b8de33e1270"),
    ("verify --suite different --p 3", 0, "83c9d12a0d5ed38a6232f80a1328f616a515a094d8a659444afb33fd5d404a83"),
    ("verify --suite different --p 3 --format table", 0, "ecc57352899aeec0d6dd094e8b39677efa7ef8956b3caa87a7e360c62ca3559e"),
    ("verify --suite exponents", 0, "49bbd39829de4bfdc1b3a2efd8743477633496ebb6fe76a38bb7ea4f920f2855"),
    ("verify --suite exponents --format table", 0, "d26e9317ede089fe297b3c6bc71b9a2f503a4fb66c479e918482b0fcc97df4c7"),
    ("verify --suite ext", 0, "b1c67321577cd1104acc2188cca853b9b973920705573dc2bbb20e568e18e6fc"),
    ("verify --suite ext --format table", 0, "b1d8ff3209ae534edc6d171aa3d382fd00b4feea1061d3b4db2934b40a6d50e9"),
    ("verify --suite degrees", 0, "1e2d53a11a273dc9c7cf0673cfa36971f7fe0094c40bd0b3dab4fc401ddaa975"),
    ("verify --suite degrees --format table", 0, "edf4d39258b83b2268bf545170733de775ad6d198ed7b1a1abe03d8dc5569272"),
    ("verify --suite conductor", 0, "4be989312ecb80810197dd3fd6e45696106326e9b40af895cee020be11ee1b85"),
    ("verify --suite twists", 0, "d7f687e64b335ca4bcd215940ad8c93ee5c5af614372364b82dd1b07caf6fe14"),
    ("verify --suite integrality", 0, "e63b5fa8e82f080fcd58308664327887ce8c2b64abc4146fc2fddb6a1158b15d"),
    ("verify --suite idempotents", 0, "cacca9c60fa50d26b3b8bbb8d353a3fa6e562c4dde68ff07760f6573633e526c"),
    ("verify --suite fitting", 0, "9d6fb305919afbb6c05cad3d92cd76cbc0e1e57df6ce9df36f69e1c9c6de2d5b"),
    ("verify --suite tables", 0, "fa77ece00ac1231a61751923f5fb28531ffc26ec69b4e9beb3b78935ffe0911e"),
]


@pytest.mark.parametrize("args,code,digest", GOLDEN, ids=[a for a, _, _ in GOLDEN])
def test_cli_output_is_unchanged(capsys, monkeypatch, args, code, digest):
    monkeypatch.delenv("CONDUCTOR_PRECISION", raising=False)
    argv = [os.path.join(SAMPLES, a) if a.endswith(".json") else a for a in args.split()]
    assert run(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
