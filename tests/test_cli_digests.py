"""Pinned CLI bytes: fixed argvs through `cli.main`, with the exit code and
the sha256 of the primary output (None when a domain error writes none).

The argvs cover every action of every subcommand, domain errors included.
Manifests are not pinned, since they hold the wall time. Seeded outputs
follow numpy's Generator stream. A change to any digest here changes a
program output, so it must be deliberate and recorded with its reason.
"""

import hashlib

import pytest

from ergolab.cli import main

# every atom of the 3999-cycle may hold the roof: a 1999-position chain
DEEP_Y = ",".join(map(str, range(3999)))
# dense rank-one sets: 384 levels at density 1/4, and every level of the span
QUARTER_A = ",".join(map(str, range(0, 1536, 4)))
EVERY_A = ",".join(map(str, range(256)))

PINNED = [
    ("tower --n 12 --h 11", 0, "87e6a011b276d41e1834bf9fd38fdadb9e741d3ea84eecd3790408669f8f8d4f"),
    ("tower --n 100 --h 7", 0, "6dc37c43646a154f5d8d1de2e975e55799ced91af5bed8c8adc874a704a9c6b9"),
    ("tower --n 8 --h 3 --y 0,4", 0, "f37e218c550dc20998df0b65e65e3a7681de9a3d7072b31588ccfbc00a4304cd"),
    ("tower --n 30 --h 4 --y 1,2,5,9,17", 0, "747b7dde3827bd5c198fb05ad4bf704f2f76a6af87cd0f3273534e76285e90a0"),
    ("tower --n 640 --h 300", 0, "e47ca094b717ae7ae7b09fec3146488e6f17eefd2efbea16c8fe7464f5b799a4"),
    ("tower --n 3999 --h 2000 --y " + DEEP_Y, 0, "5b5ee9be5d955d96537ee3d9678a1a349a0a6c542d07b779d7f45bd90d61cd98"),
    ("tower --n 8 --h 3 --y 0", 1, None),
    ("tower --n 5 --h 9", 1, None),
    ("involutions --n 1", 0, "a08f78f0f45c739ffa9e2ac882879272bba7809b5e18676a0f49e708ff5e4467"),
    ("involutions --n 2 --seed 3", 0, "063b29b4a8b2a38df140699f7dbd06db55d0e307160ac3570305fdac7a564c0a"),
    ("involutions --n 3", 0, "c8a85780edbb512271ac471d0871fd3bcd5a43910f8b0b2b2d4023df6c5c10b3"),
    ("involutions --n 25", 0, "d092da099c9c4374e9d791562fc7317568b162ec433d7d68069760d8cf7eaff8"),
    ("involutions --n 100 --seed 5", 0, "50620ea5671caa7a0a9b4e7e9cb2b0ec23c98eaf1e1aadfe38ed9db59dc3d411"),
    ("involutions --n 397 --height 3 --seed 11", 0, "069137bad12841158877905f8cacdf72fcb1e817d03ef8a48667956dc88c5ee0"),
    ("involutions --n 1000 --height 4 --seed 2", 0, "a2b3db4c00df99ff644be3ae4569abef7fed60d7cd8de3606532039988478170"),
    ("involutions --n 4097 --seed 7", 0, "0c6f65eae0b66b97a511cffc4a4c5e3d54335027cede891bae52b3526a5f3022"),
    ("involutions --n 10 --height 2", 1, None),
    ("rankone design --intervals 100:200,1000:1300", 0, "3001d5065ae5a8d4693be06f826d9d3de01bf2797b8c3e7d1babf3e127a859bd"),
    ("rankone design --intervals 100:200,10:20", 1, None),
    ("rankone design --intervals 100:200,300:250", 1, None),
    ("rankone correlate --intervals 100:200 --A level:5 --n-max 1000", 0, "b25a05c1d09347b8f9f977c28b1ca31f1718e9bb2dbde1c5a270b65bef973092"),
    ("rankone correlate --h1 2 --spacers 3,1,3,5,3 --A 1:1 --n-max 40", 0, "627ba81735c9c8c83617fe0fdba5d902c1bfcf8b6716236c62c8f62b136de694"),
    ("rankone correlate --h1 1 --spacers 1,1 --A 9:0 --n-max 100", 0, "ff420b41e5ff8cbb3a993f60fe353a657981b613d2edea4662e0badc803af3a0"),
    ("rankone correlate --h1 1 --spacers auto --intervals 100:200,1000:2000,10000:20000 --A 2:0,7,100 --n-max 100000", 0, "f22a2aee0bca1f1e77602221497c66224af524b52cccb489af5134afb1ecfcb6"),
    ("rankone correlate --h1 1 --spacers auto --intervals 100:200,1000:2000,10000:20000,100000:200000,1000000:2000000 --A 2:0,7,100 --n-max 100000", 0, "9f0866861427d76d3135685b7ccfe6841f9f15243af77b36aedd7680f9689141"),
    ("rankone correlate --h1 1536 --spacers 1536 --A 1:" + QUARTER_A + " --n-max 3000", 0, "23d924d22f4b00654d494d3f5139ab4525513b1f6912a1b0988c9f7a371d843f"),
    ("rankone correlate --h1 256 --spacers 0 --A 1:" + EVERY_A + " --n-max 600", 0, "33fd17a5781df0766ce6f67737f51b3c6d13c39ee236f2f7e274f793f6408d8e"),
    ("rankone correlate --h1 1 --spacers 1,1 --A level:999 --n-max 5", 1, None),
    ("rankone decompose --intervals 100:200,1000:1300 --times=-3,150,2400,7", 0, "f6588a969bc27af1763cde1a715430927ddd11bde9d2f18421a4d16cb33ca50b"),
    ("rankone decompose --spacers 1,1,3 --times 9,40 --mu-num 1 --mu-den 2 --remainder-cap 2", 0, "26564b725c648a19a71b91a80e531ac677b44f858de082db74ad0a2c68da0f8b"),
    ("rankone decompose --spacers 1 --times 5 --mu-num 0", 1, None),
    ("rankone gaps --sequence 1,4,9,16,25,36,49,64,81,100,121 --count 3", 0, "13ac70c147ef1da1ef5585824bf849185c67b603202ef70d5f408e9bd948665e"),
    ("rankone gaps --sequence 1,2,3 --count 2", 1, None),
    ("recurrence average --n 97 --A 0,3,5,8,13,21,34,55 --N 200", 0, "276b1e3c0e79c42ecfc622f89fc4886dc5e552a9c59d7fd19283d60af6bf540b"),
    ("recurrence average --n 60 --A 1,2,3 --A1 4,5 --A2 6,7,8,9 --N 30", 0, "d961270fba5f20ce341e71218487b0e2475f07420acff1d72f002b38c3dea227"),
    ("recurrence witness --n 50 --A 0,7,14,21 --N 40", 0, "f7e99cbbca6d32017092091a6ddc3c7d4abba9d1da62b242213849165cfb2bdf"),
    ("recurrence profile --n 40 --A 0,1,2,3,5,8 --A1 2,4,6 --N 12", 0, "413f28619b498ba67be5f600f73ee7c3023482312e4ef83686baba4a20af04fb"),
    ("recurrence witness --n 10 --A= --N 5", 1, None),
    ("recurrence average --n 10 --A 1 --N 0", 1, None),
    ("ledrappier sample --n 16 --m 12 --seed 3", 0, "d9e350775defce7a46968cf19c5fe8205c4a6df8b1820f0e2bd18e59e64f1f27"),
    ("ledrappier verify --n 32 --m 32 --seed 1", 0, "3ad578575539c746a5dd39fef47b50fe8ae07226f5c02eb26e8cccb9a6928adb"),
    ("ledrappier verify --n 8 --m 9 --seed 4", 0, "3e7baf1111c7f483e2878174e8ad1c2c7e31f17d3ff71c3e848da2a9de9e4d08"),
    ("ledrappier verify --n 9 --m 8 --seed 4", 0, "3e7baf1111c7f483e2878174e8ad1c2c7e31f17d3ff71c3e848da2a9de9e4d08"),
    ("ledrappier verify --n 9 --m 9 --seed 2", 0, "1fa2ab20532b22fe13c9e49dcd7da83a238f7ce8c2fdf991fd7dd66a27b25c44"),
    ("ledrappier verify --n 3 --m 2 --seed 0", 0, "8f4f4c034322d49a9d0178fee51daf928e464b361da1b62614e736f5ef406fa8"),
    ("ledrappier trace --n 64 --m 64 --seed 3 --start 5,0 --direction up", 1, None),
    ("ledrappier trace --n 24 --m 24 --seed 2 --start 4,12 --direction right", 0, "86a699b714e57d1adee034a43553f7d1055a840dc285dddcb10e74e2c9907307"),
    ("ledrappier trace --n 64 --m 64 --seed 3 --start 1,0", 0, "49c8b36968670d076d1c476d648e1621b80a4616e8dde3b036825af594ce13ae"),
    ("ledrappier stats --n 64 --m 64 --seed 5 --samples 32", 0, "755b2647002b36d1d83f097b0b8e4acd05c0966c630c30c15eb7bef4ed5a027d"),
    ("ledrappier stats --n 96 --m 48 --seed 11 --samples 40", 0, "eabf988e0f23ed605be3721f9b8f869e5ff739a0de2e61205d5066ebf0e6edfd"),
    ("ledrappier stats --n 8 --m 8 --seed 1 --samples 0", 1, None),
    ("mosaic generate --w 6 --h 4 --k 2 --seed 1", 0, "7a6527947ac9cb5ee1e7be5eded8200527cf74df12735878a527a69daf64de7e"),
    ("mosaic generate --w 1 --h 1 --k 3 --seed 0", 0, "ba3b4641493e89727797429b49e76ef1ca217b497be0445ccecf9d128d0169a7"),
    ("mosaic generate --w 5 --h 4 --k 2 --seed 1", 1, None),
    ("mosaic count --w 6 --h 6 --k 3 --adjacency 4", 0, "e45116b6f824e6927860aaf284ded65da2c419ed125e719bb817bd0fe6df0d96"),
    ("mosaic count --w 13 --h 2 --k 2", 1, None),
    ("mosaic spin --w 4 --h 4 --k 2 --seed 9", 0, "03820bad29221a5db637a153ac120698c1355ff7847ad9406f2261811a6e1bb7"),
    ("mosaic spin --w 6 --h 6 --k 3 --seed 9", 1, None),
    ("mosaic entropy --widths 1,2,3,4,6 --h 4 --k 2", 0, "5fea85a44158b95549b7144d37f75b6a163df254e252d32bd8ff61737fc7316a"),
    ("f2 verify --radius 1", 0, "0f1766bcd5e7e63f0667063c7165e36b3f4e60e4bab161f82de88297cbfcf2c0"),
    ("f2 verify", 0, "56dc03d006fc7359c35c9f1b9a1548ca61bdb1c0079070999a5afe649b85a640"),
    ("f2 verify --radius 3", 1, None),
    ("f2 verify --radius 4", 1, None),
    ("f2 search --budget 400 --seed 7", 0, "c1a5a7452857082250f7cb0c5a65db0ceb6ebc55b2f866669db35ab190f0a090"),
    ("f2 search --budget 3000 --seed 11", 0, "6a113e2c628f28ecc46340daff448df12b5af6667b076246456d102a181cd6cd"),
    ("f2 search --radius 1 --budget 10 --seed 0", 1, None),
]


def _short(argv):
    for full, short in ((DEEP_Y, "0,...,3998"), (QUARTER_A, "0,4,...,1532"), (EVERY_A, "0,...,255")):
        argv = argv.replace(full, short)
    return argv


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[_short(p[0]) for p in PINNED])
def test_cli_output_bytes_are_pinned(tmp_path, capsys, argv, code, digest):
    out = tmp_path / "out"
    assert main(argv.split() + ["--out", str(out)]) == code
    got = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert got == digest
    assert (capsys.readouterr().err != "") == (code != 0)
