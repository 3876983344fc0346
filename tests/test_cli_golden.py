"""Golden CLI output: sha256 digests of stdout and written files, pinned.

Every subcommand runs on fixed seeded inputs, and the digest of what it
printed (and of the file it wrote, if any) must match the recorded value,
so any change to the library that alters a single output byte fails here.
The inputs are written by the CLI itself (`random`, `family`, `plotkin`),
so those writers are covered too. The digests were recorded before codes
cached their analyses and files were read as packed ints; an intended
output change re-records them from `run_steps`.
"""

import hashlib

from plotkit.cli import cli_main

# (label, argv, written file or None); file names are relative to the test's tmp_path.
STEPS = [
    ("random-a", ["random", "-n", "9", "-M", "60", "--seed", "11", "--zero", "-o", "a.code"], "a.code"),
    ("random-b", ["random", "-n", "9", "-M", "37", "--seed", "12", "--zero", "-o", "b.code"], "b.code"),
    ("random-nozero", ["random", "-n", "6", "-M", "20", "--seed", "5", "-o", "nz.code"], "nz.code"),
    ("family-rm", ["family", "reed_muller", "1", "4", "-o", "rm.code"], "rm.code"),
    ("family-parity", ["family", "parity", "9", "-o", "par.code"], "par.code"),
    ("family-gen", ["family", "from_generator", "1101", "0111", "-o", "gen.code"], "gen.code"),
    ("family-random", ["family", "random", "5", "12", "3", "1", "-o", "fr.code"], "fr.code"),
    ("family-random-b", ["family", "random", "5", "7", "4", "1", "-o", "fr2.code"], "fr2.code"),
    ("random-six", ["random", "-n", "6", "-M", "9", "--seed", "6", "--zero", "-o", "z6.code"], "z6.code"),
    ("plotkin-ab", ["plotkin", "a.code", "b.code", "-o", "ab.code"], "ab.code"),
    ("plotkin-a-par", ["plotkin", "a.code", "par.code", "-o", "apar.code"], "apar.code"),
    ("info-a", ["info", "a.code"], None),
    ("info-ab-json", ["info", "--json", "ab.code"], None),
    ("info-par", ["info", "par.code"], None),
    ("info-gen", ["info", "--gen", "fr.code"], None),
    ("kernel-ab", ["kernel", "ab.code"], None),
    ("kernel-apar", ["kernel", "apar.code"], None),
    ("kernel-nozero", ["kernel", "nz.code"], None),
    ("kernel-rm-file", ["kernel", "rm.code", "-o", "rm.kernel"], "rm.kernel"),
    ("span-a", ["span", "a.code"], None),
    ("span-ab", ["span", "ab.code"], None),
    ("span-gen", ["span", "--gen", "fr.code"], None),
    ("span-nozero-file", ["span", "nz.code", "-o", "nz.span"], "nz.span"),
    ("verify-ab-json", ["verify", "--json", "a.code", "b.code"], None),
    ("verify-ab-text", ["verify", "a.code", "b.code"], None),
    ("verify-oracle", ["verify", "--oracle", "fr.code", "fr2.code"], None),
    ("verify-nozero", ["verify", "nz.code", "z6.code"], None),
    ("verify-nozero-json", ["verify", "--json", "z6.code", "nz.code"], None),
    ("corpus-table", ["corpus", "--pairs", "40", "--seed", "7", "--max-n", "8"], None),
    ("corpus-json", ["corpus", "--json", "--pairs", "25", "--seed", "8", "--max-n", "10"], None),
]

GOLDEN = {
    "random-a": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=ee1415448a8ffe8b699cb65228ed9b9e73a15254b95bb6b7867c61ea27794ab9",
    "random-b": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=6bf1e88367a97dfab746309f2352e1f81536a449c4a582429aed7b1c19685230",
    "random-nozero": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=4269543072f0f809ba1c5ecff1e676c1452d518917289cfee6f899bb02cad61c",
    "family-rm": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=7b96e4ebc7043d9caa049535cffe8035bbd9800058b15a3b1b10114c07cbf391",
    "family-parity": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=7bcf417a956e0fc7c110c6412b023fa2ffac61ddf88ff25d8c9ba27f272fc941",
    "family-gen": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=846beaadabafaf9e370755bfc56cd94469af3d161f0f455d26f9c887247fbd63",
    "family-random": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=9f106a2fcb47d0daa13cb9349c2badfead5f2b2b350830895e0d1e36abcefbe1",
    "family-random-b": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=9046dfc45861caf6d6002d00f34c40f5249ef285240389a8aea31c4ec35084c5",
    "random-six": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=7e18d0669704d745820a8e010b10923b76db0dcace77a22c0586f3f9b3f5ff15",
    "plotkin-ab": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=fd1a38e711219aba6ece94a293f3976e50875b747639f737d70c301137dbe3a4",
    "plotkin-a-par": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=55ba112935b32a5b5b62535aeec310a4f6c72d4b7b8cf9f83c42bf138ebe9b1a",
    "info-a": "rc=0 out=eb5914469a18094b0e0936d510670583839598e18fe27fc49a42361a0582730d",
    "info-ab-json": "rc=0 out=57079462cd6c5d16eb62328ba727a03ec489382108f2da20589e6ac4b621adaa",
    "info-par": "rc=0 out=478ead93424d68f8f5e3b30fd2bfdb27da6e1068d837f0e98207115cbf939251",
    "info-gen": "rc=0 out=4a27b7e76a9fd293b216b98e7546f54690bb9ee1b48671764f47eebfb3c03d63",
    "kernel-ab": "rc=0 out=e183de765e13713d5276191bec73390c679e4d67f0754c238105deff2ec0c2e5",
    "kernel-apar": "rc=0 out=ad51409ec63a80a813c8467698aa0affd0796b7bbdc83856668e14c4c35f6483",
    "kernel-nozero": "rc=0 out=d6e302db2381c793a845f040f724e60b141023246852ccbe3a206b23c0c03f26",
    "kernel-rm-file": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=a8da78e8cf3095ea1515afba55ed0e65ca97a4987f0944f93558d07aa7ee3441",
    "span-a": "rc=0 out=a1ca30eaa118a08d7ee995debf48d0ef8f13ec2c47633bb55cac1837f9b980e2",
    "span-ab": "rc=0 out=ced3860658139dea8370bdaffffd2e61eb59eb1385e6922fb2a62656d10b1a82",
    "span-gen": "rc=0 out=a66ae1d152a62fea8df0acbbee4e7b25b617d42251cd8c02554264c395bdedc7",
    "span-nozero-file": "rc=0 out=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 file=f12e69d976aee40a8619db8d6410aabca3dc486f902bc00eded988e41d2c0f4d",
    "verify-ab-json": "rc=0 out=a816723810b09cf687238cb4673457638a691f59004cb29e9fe6c968f529edae",
    "verify-ab-text": "rc=0 out=7ad29af69f1fb56e7e8d01d48e01b5759a869d88cbf6aa25c48b1c635c173c96",
    "verify-oracle": "rc=0 out=bc093e56c1a14e6b9ee514df4c8eb20ba972ec90466241a49214475f8fdd67d8",
    "verify-nozero": "rc=0 out=26e641dede8285fef450078bd0f754726ccd29d22d1ef24ae6887580dd69c528",
    "verify-nozero-json": "rc=0 out=56afcbf680808b2988563916de7cf55a9b47980135a6a3534a83d38251c9b096",
    "corpus-table": "rc=0 out=d9844865382ba093a0a5d749ad20713a895d3be13f1f676af9d7bdf549452fc3",
    "corpus-json": "rc=0 out=95039fe5812703aa623d1d275a9c91d7393b2cf179c09d9705503aa74f75aba9",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_steps(directory, capsys) -> dict[str, str]:
    """Run every step in `directory`; map each label to rc and digests."""
    digests = {}
    for label, argv, written in STEPS:
        argv = [str(directory / a) if a.endswith((".code", ".kernel", ".span")) else a
                for a in argv]
        rc = cli_main(argv)
        out = capsys.readouterr().out
        entry = f"rc={rc} out={_digest(out)}"
        if written is not None:
            entry += f" file={_digest((directory / written).read_text())}"
        digests[label] = entry
    return digests


def test_cli_output_matches_recorded_digests(tmp_path, capsys):
    got = run_steps(tmp_path, capsys)
    changed = {label: got[label] for label in got if got[label] != GOLDEN.get(label)}
    assert not changed, f"output changed for {sorted(changed)}: {changed}"
