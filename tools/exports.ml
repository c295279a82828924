(* Fail when an exported lib/ value has no user outside its own
   compilation unit, counting a test as a user only of declared test
   support, or when an optional parameter of one is passed by no other
   unit, tests included.

   Usage: exports BUILD_DIR, after [dune build @check] (which also writes
   the typed trees of executables and tests); BUILD_DIR is normally
   [_build/default]. [dune runtest] runs it that way.

   The declarations are the [val]s of every lib/ interface's typed tree
   ([.cmti]), submodules included. The uses are the identifiers of every
   implementation's typed tree ([.cmt]) under BUILD_DIR. A library or
   executable use always counts; a use from a unit whose source is under
   test/ counts only for a value of [test_support]. Both sides are matched
   on the declaration's [Shape.Uid.t], so a use through a module alias
   ([module J = Json], a library's wrapper module) still counts. An
   optional parameter counts as passed when another unit applies the
   value with that label written out ([?l], [~l]). Prints one line per
   unused value or parameter and exits 1 if there is any. *)

(* Declared test support: a value here may have tests as its only users.
   An entry ending in ".mli" or "/" covers every value of those interfaces;
   any other entry names one value. *)
let test_support =
  [
    "lib/check/" (* the oracle and fuzz library *);
    "lib/topology/fixtures.mli" (* the paper's example graphs *);
    "Dspf.verify" (* the from-scratch audit of the incremental SPF *);
    (* The incremental bound: a leaf-edge failure rewrites one node. *)
    "Dspf.stats";
    (* The MFBG guarantee: every node's red and blue paths share no link,
       so any single link failure leaves it one of the two. *)
    "Redundant.paths_disjoint";
    "Redundant.survives";
    (* The level-2 domain's tree validates and holds every member domain's
       agent but the source's; [Hierarchy.recover] only shows the links it
       repairs. *)
    "Hierarchy.top_domain";
  ]

let declared file name =
  List.exists
    (fun s ->
      if String.ends_with ~suffix:"/" s then String.starts_with ~prefix:s file
      else if String.ends_with ~suffix:".mli" s then s = file
      else s = name)
    test_support

let rec files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files path else [ path ])

(* The optional labels of a value's type, outermost arrow first. *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let () =
  let cmts =
    files Sys.argv.(1)
    |> List.filter (fun f -> Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
    |> List.map Cmt_format.read_cmt
  in
  (* The uids of values another unit names, apart for test units. An
     interface and its implementation number their uids separately, so a
     use inside the declaring unit could collide with an exported uid: skip
     those.

     Beside them, the optional arguments another unit's applications pass,
     keyed on the applied value's uid and the label, tests included. An
     optional argument the source omits is a [None] the compiler inserts
     with a ghost location; only the arguments the source writes count. *)
  let used = Hashtbl.create 4096 and test_used = Hashtbl.create 1024 in
  let passed = Hashtbl.create 1024 in
  let unit = ref "" and uses = ref used in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
     | Texp_ident (_, _, { val_uid = Item { comp_unit; _ } as uid; _ }) when comp_unit <> !unit ->
         Hashtbl.replace !uses uid ()
     | Texp_apply ({ exp_desc = Texp_ident (_, _, { val_uid = Item { comp_unit; _ } as uid; _ }); _ }, args)
       when comp_unit <> !unit ->
         List.iter
           (function
             | Asttypes.Optional l, Some (arg : Typedtree.expression) when not arg.exp_loc.loc_ghost ->
                 Hashtbl.replace passed (uid, l) ()
             | _ -> ())
           args
     | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match c.cmt_annots with
      | Implementation str ->
          unit := c.cmt_modname;
          uses :=
            (match c.cmt_sourcefile with
            | Some f when String.starts_with ~prefix:"test/" f -> test_used
            | _ -> used);
          iter.structure iter str
      | _ -> ())
    cmts;
  let unused = ref [] in
  let rec scan file path (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let uid = vd.val_val.val_uid and name = String.concat "." (path @ [ vd.val_name.txt ]) in
            if
              not
                (Hashtbl.mem used uid || (Hashtbl.mem test_used uid && declared file name))
            then unused := (file ^ ": " ^ name) :: !unused;
            List.iter
              (fun l ->
                if not (Hashtbl.mem passed (uid, l)) then
                  unused := Printf.sprintf "%s: %s ?%s" file name l :: !unused)
              (optional_labels vd.val_val.val_type)
        | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
          ->
            scan file (path @ [ m ]) sg
        | _ -> ())
      sg.sig_items
  in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match (c.cmt_annots, c.cmt_sourcefile) with
      | Interface sg, Some file when String.starts_with ~prefix:"lib/" file ->
          let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename file)) in
          scan file [ m ] sg
      | _ -> ())
    cmts;
  List.iter print_endline (List.sort_uniq compare !unused);
  if !unused <> [] then exit 1
