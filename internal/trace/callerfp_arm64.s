#include "textflag.h"

// func callerFP() unsafe.Pointer
TEXT ·callerFP(SB), NOSPLIT|NOFRAME, $0-8
	MOVD R29, ret+0(FP)
	RET
