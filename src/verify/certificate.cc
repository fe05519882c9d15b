//===- verify/certificate.cc - Proof certificates ---------------*- C++ -*-===//

#include "verify/certificate.h"

#include "support/json.h"

namespace reflex {

const char *justifyName(Justify J) {
  switch (J) {
  case Justify::PathInfeasible:
    return "path-infeasible";
  case Justify::LocalObligation:
    return "local-obligation";
  case Justify::CompOrigin:
    return "component-origin";
  case Justify::InvariantHistory:
    return "invariant-history";
  case Justify::NoCompHistory:
    return "no-comp-history";
  case Justify::GuardPreserved:
    return "guard-preserved";
  case Justify::NoPriorLocal:
    return "no-prior-local";
  case Justify::FrameBlocked:
    return "frame-blocked";
  }
  return "?";
}

const InvariantRecord *Certificate::findInvariant(int Id) const {
  for (const InvariantRecord &Inv : Invariants)
    if (Inv.Id == Id)
      return &Inv;
  return nullptr;
}

namespace {

void writeStep(JsonWriter &W, const TermContext &Ctx, const ProofStep &S) {
  W.beginObject();
  W.field("where", S.Where);
  W.field("path", static_cast<int64_t>(S.PathIndex));
  if (S.EmitIndex >= 0)
    W.field("emit", static_cast<int64_t>(S.EmitIndex));
  W.field("justify", justifyName(S.Kind));
  if (S.LocalIndex >= 0)
    W.field("local", static_cast<int64_t>(S.LocalIndex));
  if (S.InvariantId >= 0)
    W.field("invariant", static_cast<int64_t>(S.InvariantId));
  if (!S.Binding.empty()) {
    W.key("binding");
    W.beginObject();
    for (const auto &[Var, Term] : S.Binding)
      W.field(Var, Ctx.str(Term));
    W.endObject();
  }
  W.endObject();
}

void writeLits(JsonWriter &W, const TermContext &Ctx,
               const std::vector<Lit> &Lits) {
  W.beginArray();
  for (const Lit &L : Lits)
    W.value((L.Pos ? "" : "!") + Ctx.str(L.Atom));
  W.endArray();
}

} // namespace

namespace {

/// Shared body of toJson and canonical. \p Audit adds the fields that are
/// for human consumption only (program name, NI notes); the canonical
/// form omits them so it contains exactly what certsEqual compares.
std::string renderCertificate(const Certificate &Cert, const TermContext &Ctx,
                              bool Audit) {
  JsonWriter W;
  W.beginObject();
  if (Audit)
    W.field("program", Cert.ProgramName);
  W.field("property", Cert.PropertyName);
  W.field("kind", Cert.Kind);
  // The engine tag and clausal invariant appear only for non-default
  // engines: induction certificates keep their pre-portfolio bytes.
  if (!Cert.Engine.empty())
    W.field("engine", Cert.Engine);
  if (Audit && !Cert.Footprint.empty()) {
    W.key("footprint");
    W.beginArray();
    for (const std::string &Key : Cert.Footprint)
      W.value(Key);
    W.endArray();
  }
  if (Audit && !Cert.SolverLog.empty()) {
    W.key("solver_log");
    W.beginArray();
    for (const std::string &Line : Cert.SolverLog)
      W.value(Line);
    W.endArray();
  }
  W.key("steps");
  W.beginArray();
  for (const ProofStep &S : Cert.Steps)
    writeStep(W, Ctx, S);
  W.endArray();
  W.key("invariants");
  W.beginArray();
  for (const InvariantRecord &Inv : Cert.Invariants) {
    W.beginObject();
    W.field("id", static_cast<int64_t>(Inv.Id));
    W.field("forbids", Inv.Forbids);
    W.key("guard");
    writeLits(W, Ctx, Inv.Guard);
    W.field("action", Inv.Action.str());
    W.key("steps");
    W.beginArray();
    for (const ProofStep &S : Inv.Steps)
      writeStep(W, Ctx, S);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  if (!Cert.Engine.empty()) {
    W.key("clauses");
    W.beginArray();
    for (const std::vector<Lit> &Clause : Cert.InvClauses)
      writeLits(W, Ctx, Clause);
    W.endArray();
  }
  if (!Cert.NICases.empty()) {
    W.key("ni_cases");
    W.beginArray();
    for (const NICaseRecord &C : Cert.NICases) {
      W.beginObject();
      W.field("where", C.Where);
      W.field("path", static_cast<int64_t>(C.PathIndex));
      W.field("sender_high", C.SenderHigh);
      W.key("label_lits");
      writeLits(W, Ctx, C.LabelLits);
      if (Audit && !C.Note.empty())
        W.field("note", C.Note);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();
  return W.take();
}

} // namespace

std::string Certificate::toJson(const TermContext &Ctx) const {
  return renderCertificate(*this, Ctx, /*Audit=*/true);
}

std::string Certificate::canonical(const TermContext &Ctx) const {
  return renderCertificate(*this, Ctx, /*Audit=*/false);
}

} // namespace reflex
