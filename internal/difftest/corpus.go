package difftest

// RegressionSeeds is the committed corpus: seeds every CI run replays
// regardless of -short. Grow this list whenever a differential failure is
// found and fixed — the seed that exposed the bug goes here, pinning the
// reproducer forever. The initial population was chosen to cover every
// generator construct (branches, bounded loops, calls, SVC round-trips,
// FP/vector traffic, register-offset addressing) at several program sizes.
var RegressionSeeds = []Case{
	{1, 40}, {2, 40}, {3, 40}, {4, 40}, {5, 40},
	{6, 80}, {7, 80}, {8, 80}, {9, 80}, {10, 80},
	{11, 120}, {12, 120}, {13, 120}, {14, 120}, {15, 120},
	{16, 160}, {17, 160}, {18, 160}, {19, 160}, {20, 160},
	{0x5EED0001, 60}, {0x5EED0002, 60}, {0x5EED0003, 60}, {0x5EED0004, 60},
	{0x5EED0005, 100}, {0x5EED0006, 100}, {0x5EED0007, 100}, {0x5EED0008, 100},
	{0xC0FFEE, 140}, {0xDECAF, 140}, {0xFACADE, 140}, {0xBEEF, 140},
	{777, 200}, {31337, 200}, {65537, 200}, {1 << 40, 200},
}

// RV64RegressionSeeds is the committed corpus of the RV64 lane (RV64Lane).
// Grow it exactly like RegressionSeeds: whenever an RV64 differential
// failure is found and fixed, the exposing seed goes here. The initial
// population covers every generator construct (branches, bounded loops,
// calls, the full M-extension group, indexed addressing) at several program
// sizes.
var RV64RegressionSeeds = []Case{
	{1, 40}, {2, 40}, {3, 40}, {4, 40}, {5, 40},
	{6, 80}, {7, 80}, {8, 80}, {9, 80}, {10, 80},
	{11, 120}, {12, 120}, {13, 120}, {14, 120}, {15, 120},
	{16, 160}, {17, 160}, {18, 160}, {19, 160}, {20, 160},
	{0x5EED1001, 60}, {0x5EED1002, 60}, {0x5EED1003, 60}, {0x5EED1004, 60},
	{0x5EED1005, 100}, {0x5EED1006, 100}, {0x5EED1007, 100}, {0x5EED1008, 100},
	{0x5C0FFEE, 140}, {0xDECAF1, 140}, {0xFACADE1, 140}, {0xBEEF1, 140},
	{778, 200}, {31338, 200}, {65538, 200}, {1<<40 + 1, 200},
}

// RV64SysRegressionSeeds is the committed corpus of the RV64 full-system
// lane (RV64SysLane). Grow it exactly like the other corpora: whenever a
// system-lane differential failure is found and fixed, the exposing seed
// goes here. Seeds cover both flavours (even seeds tend to draw the U-mode
// body, odd ones the S-mode body with random medeleg/SUM) and every sys
// construct: sv39 table building through stores, mret privilege drops,
// ecall round-trips, directed page faults on all six fault pages, illegal
// CSR accesses from U-mode and delegated supervisor handling.
var RV64SysRegressionSeeds = []Case{
	{1, 40}, {2, 40}, {3, 40}, {4, 40}, {5, 40},
	{6, 80}, {7, 80}, {8, 80}, {9, 80}, {10, 80},
	{11, 120}, {12, 120}, {13, 120}, {14, 120}, {15, 120},
	{16, 160}, {17, 160}, {18, 160}, {19, 160}, {20, 160},
	{0x5EED2001, 60}, {0x5EED2002, 60}, {0x5EED2003, 60}, {0x5EED2004, 60},
	{0x5EED2005, 100}, {0x5EED2006, 100}, {0x5EED2007, 100}, {0x5EED2008, 100},
	{0x5C0FFEE2, 140}, {0xDECAF2, 140}, {0xFACADE2, 140}, {0xBEEF2, 140},
	{779, 200}, {31339, 200}, {65539, 200}, {1<<40 + 2, 200},
}

// SMCRegressionSeeds is the committed corpus of the self-modifying-code
// lane (SMCLane): programs that store fresh instruction words over
// already-executed code and re-execute it, asserting bit-identical state
// *and* that the SMC invalidation machinery (host-MMU write protection on
// Captive, dirty tracking on the QEMU baseline) fired. Add exposing seeds
// here when an SMC divergence is found and fixed.
var SMCRegressionSeeds = []Case{
	{1, 40}, {2, 40}, {3, 40}, {4, 40},
	{5, 80}, {6, 80}, {7, 80}, {8, 80},
	{9, 120}, {10, 120}, {11, 120}, {12, 120},
	{0x5EED4001, 100}, {0x5EED4002, 100}, {0x5EED4003, 160}, {0x5EED4004, 160},
	{781, 200}, {31341, 200},
}

// MMUFaultRegressionSeeds is the committed corpus of the GA64 EL0
// paging-fault lane (MMUFaultLane): EL0 programs under translation whose
// construct stream takes permission and translation aborts *mid-block* —
// the scenario that demands the unified interpreter's block-granular,
// fault-aware instruction accounting. Add exposing seeds here when a fault
// divergence is found and fixed.
var MMUFaultRegressionSeeds = []Case{
	{1, 40}, {2, 40}, {3, 40}, {4, 40},
	{5, 80}, {6, 80}, {7, 80}, {8, 80},
	{9, 120}, {10, 120}, {11, 120}, {12, 120},
	{0x5EED5001, 100}, {0x5EED5002, 100}, {0x5EED5003, 160}, {0x5EED5004, 160},
	{782, 200}, {31342, 200},
}

// MMURegressionSeeds is the committed corpus of the GA64 MMU-on/EL0 lane
// (MMULane): programs that build guest page tables, enable the MMU, drop
// to EL0 via eret and run the user-lane construct set under translation,
// bouncing SVCs through the lower-EL vector. Add exposing seeds here when a
// paged GA64 divergence is found and fixed.
var MMURegressionSeeds = []Case{
	{1, 40}, {2, 40}, {3, 40}, {4, 40},
	{5, 80}, {6, 80}, {7, 80}, {8, 80},
	{9, 120}, {10, 120}, {11, 120}, {12, 120},
	{0x5EED3001, 100}, {0x5EED3002, 100}, {0x5EED3003, 160}, {0x5EED3004, 160},
	{780, 200}, {31340, 200},
}

// IRQRegressionSeeds is the committed corpus of the GA64 interrupt lane
// (IRQLane): programs that arm the platform timer through MMIO, enable
// and mask the line through IRQEN/DAIF, mix WFI (wake, idle-skip and
// halt paths) with straight-line work and take vectored timer interrupts
// whose arrival points are part of the compared state. Add exposing seeds
// here when an injection divergence is found and fixed.
var IRQRegressionSeeds = []Case{
	{1, 40}, {2, 40}, {3, 40}, {4, 40},
	{5, 80}, {6, 80}, {7, 80}, {8, 80},
	{9, 120}, {10, 120}, {11, 120}, {12, 120},
	{13, 160}, {14, 160}, {15, 160}, {16, 160},
	{0x5EED6001, 100}, {0x5EED6002, 100}, {0x5EED6003, 160}, {0x5EED6004, 160},
	{783, 200}, {31343, 200},
}

// SMPRegressionSeeds is the committed corpus of the two-hart SMP lane
// (SMPLane): one image dispatched on mhartid, both harts running the user
// construct set (branches, loops, calls, misaligned and page-straddling
// accesses, cross-page SMC) over disjoint buffers plus interleaving-
// sensitive peer loads from the sibling's buffer, all driven by the
// deterministic round-robin scheduler. Add exposing seeds here when a
// cross-hart divergence is found and fixed.
var SMPRegressionSeeds = []Case{
	{1, 40}, {2, 40}, {3, 40}, {4, 40},
	{5, 80}, {6, 80}, {7, 80}, {8, 80},
	{9, 120}, {10, 120}, {11, 120}, {12, 120},
	{0x5EED8001, 100}, {0x5EED8002, 100}, {0x5EED8003, 160}, {0x5EED8004, 160},
	{785, 200}, {31345, 200},
}

// RV64IRQRegressionSeeds is the committed corpus of the RV64 interrupt
// lane (RV64IRQLane). Even/odd seeds tend to draw the M-/S-mode body
// flavours: machine-timer interrupts to mtvec, delegated supervisor
// software interrupts to stvec, mip/sip traffic, WFI and mstatus/sstatus
// mask toggles. Add exposing seeds here when an injection divergence is
// found and fixed.
var RV64IRQRegressionSeeds = []Case{
	{1, 40}, {2, 40}, {3, 40}, {4, 40},
	{5, 80}, {6, 80}, {7, 80}, {8, 80},
	{9, 120}, {10, 120}, {11, 120}, {12, 120},
	{13, 160}, {14, 160}, {15, 160}, {16, 160},
	{0x5EED7001, 100}, {0x5EED7002, 100}, {0x5EED7003, 160}, {0x5EED7004, 160},
	{784, 200}, {31344, 200},
	// Exposed the qemu softmmu device-write path skipping the injection-
	// deadline refresh (an IRQCHK livelock against a stale deadline).
	{7000097, 100},
}
