// lint-path: src/nad/bad_opcode_switch.cc
// Known-bad fixture: a switch over MsgType that names only some opcodes.
// A default: clause would hide new opcodes from -Wswitch, so the linter
// demands every enumerator be spelled out in src/nad/ switches.
#include "nad/protocol.h"

namespace nadreg::nad {

inline bool BadIsRequest(MsgType t) {
  switch (t) {  // lint-expect(opcode-switch)
    case MsgType::kReadReq:
    case MsgType::kWriteReq:
    case MsgType::kMergeReq:
      return true;
    default:
      return false;
  }
}

}  // namespace nadreg::nad
