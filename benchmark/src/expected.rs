//! Pinned results of the paper's selective-exhaustive campaign: every
//! client's Table 1 tallies and Table 3 BRK+FSV locations (2BC, 2BO, 6BC1,
//! 6BC2, 6BO, MISC) under both schemes (Table 5), and each campaign's
//! Figure 4 crash-latency histogram. Headline checks: ftpd 1072 runs per
//! client, Client1 BRK 4 baseline / 1 new encoding, Client3 BRK 3; sshd
//! 1160 runs per client, Client1 BRK 20 / 7.
//!
//! Regenerate with `--print-expected` after a change meant to move them.

pub const CAMPAIGN: &[&str] = &[
    "ftpd/base Client1 runs=1072 na=640 nm=116 sd=269 fsv=43 brk=4 brkfsv_loc=23,4,2,6,8,4",
    "ftpd/base Client2 runs=1072 na=656 nm=78 sd=279 fsv=59 brk=0 brkfsv_loc=33,6,2,8,8,2",
    "ftpd/base Client3 runs=1072 na=656 nm=103 sd=268 fsv=42 brk=3 brkfsv_loc=22,5,2,5,8,3",
    "ftpd/base Client4 runs=1072 na=752 nm=67 sd=217 fsv=36 brk=0 brkfsv_loc=19,5,0,3,1,8",
    "ftpd/base figure4 samples=1033 bins=451,408,120,10,0,20,15,1,0,0,3,3,2,0,0,0",
    "ftpd/newenc Client1 runs=1072 na=640 nm=80 sd=328 fsv=23 brk=1 brkfsv_loc=5,4,2,0,8,5",
    "ftpd/newenc Client2 runs=1072 na=656 nm=48 sd=339 fsv=29 brk=0 brkfsv_loc=11,6,2,0,8,2",
    "ftpd/newenc Client3 runs=1072 na=656 nm=64 sd=328 fsv=23 brk=1 brkfsv_loc=5,5,2,0,8,4",
    "ftpd/newenc Client4 runs=1072 na=752 nm=41 sd=259 fsv=20 brk=0 brkfsv_loc=5,5,0,0,1,9",
    "ftpd/newenc figure4 samples=1254 bins=582,473,142,14,0,20,14,1,0,0,3,3,2,0,0,0",
    "sshd/base Client1 runs=1160 na=568 nm=130 sd=403 fsv=39 brk=20 brkfsv_loc=32,11,2,3,4,7",
    "sshd/base Client2 runs=1160 na=584 nm=165 sd=353 fsv=58 brk=0 brkfsv_loc=29,8,1,3,2,15",
    "sshd/base figure4 samples=756 bins=308,224,111,17,3,14,3,0,0,6,2,0,0,68,0,0",
    "sshd/newenc Client1 runs=1160 na=568 nm=90 sd=474 fsv=21 brk=7 brkfsv_loc=4,11,2,0,4,7",
    "sshd/newenc Client2 runs=1160 na=584 nm=127 sd=415 fsv=34 brk=0 brkfsv_loc=7,8,1,0,2,16",
    "sshd/newenc figure4 samples=889 bins=387,242,131,25,5,14,3,0,0,6,2,0,0,74,0,0",
];
